import json
import math
import random
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from lacunary import (
    IntegerSet,
    Partition,
    PsiPoint,
    SelectionTrial,
    classify_growth,
    decompose,
    distribution_function,
    dyadic_partition,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
    generate_sumset,
    is_s_independent,
    psi,
    uniform_schedule,
)
from lacunary._util import ln_int
from lacunary.equidistribution import _grid_values
from lacunary.integer_sets import INT64_SAFE
from lacunary.relations import _search_reps

from _oracles import is_prime_trial_division, naive_s_independent, relations_grouped
from test_equidistribution import _loop_grid_values, _psi_dict_spectrum


def test_ordering_by_absolute_value_negative_first():
    E = IntegerSet.from_iterable([5, -5, 3, -1, 0, 2])
    assert E.elements == (0, -1, 2, 3, -5, 5)


def test_duplicates_rejected_in_constructor():
    with pytest.raises(ValueError):
        IntegerSet((1, 1, 2))
    with pytest.raises(ValueError):
        IntegerSet((2, 1))  # wrong order
    with pytest.raises(ValueError):
        IntegerSet((3, -3))  # ties put the negative first
    with pytest.raises(ValueError):
        IntegerSet((-3, -3))


def test_generation_is_deterministic():
    a = generate_polynomial([1, -3, 0, 2], 200)
    b = generate_polynomial([1, -3, 0, 2], 200)
    assert a.elements == b.elements


def test_polynomial_examples():
    assert generate_polynomial([0, 0, 1], 5).elements == (1, 4, 9, 16, 25)
    assert generate_polynomial([0, 1], 3).elements == (1, 2, 3)
    assert generate_polynomial([0, 2], 4).elements == (2, 4, 6, 8)


def test_polynomial_rejects_constant():
    with pytest.raises(ValueError, match="degenerate"):
        generate_polynomial([7], 10)
    with pytest.raises(ValueError, match="degenerate"):
        generate_polynomial([7, 0, 0], 10)


def test_polynomial_duplicate_collapse_warns():
    # P(k) = (k-2)^2 repeats values at k = 1, 3
    with pytest.warns(UserWarning, match="duplicate"):
        E = generate_polynomial([4, -4, 1], 4)
    assert E.elements == (0, 1, 4)


def test_primes_examples():
    assert generate_primes(10).elements == (2, 3, 5, 7)
    assert generate_primes(2).elements == (2,)
    assert len(generate_primes(100)) == 25
    assert len(generate_primes(1)) == 0


def test_primes_match_trial_division():
    sieved = set(generate_primes(2000).elements)
    for n in range(2001):
        assert (n in sieved) == is_prime_trial_division(n)


def test_geometric_examples():
    assert generate_geometric(3, 4).elements == (3, 9, 27, 81)
    assert generate_geometric(2, 1).elements == (2,)
    E = generate_geometric(3, 80)
    assert E.elements[-1] == 3**80  # exact bignum, no overflow


def test_sumset_examples():
    base = IntegerSet.from_iterable([3, 9, 27])
    assert generate_sumset(base, 2).elements == (12, 30, 36)
    assert generate_sumset(base, 1).elements == base.elements
    big = generate_geometric(3, 6)
    assert len(generate_sumset(big, 3)) == math.comb(6, 3)


def test_sumset_size_bound_random():
    rng = random.Random(7)
    for _ in range(20):
        vals = rng.sample(range(1, 200), rng.randint(3, 8))
        base = IntegerSet.from_iterable(vals)
        j = rng.randint(1, len(base))
        assert len(generate_sumset(base, j)) <= math.comb(len(base), j)


def test_sumset_preconditions():
    base = IntegerSet.from_iterable([3, 9])
    with pytest.raises(ValueError):
        generate_sumset(base, 3)
    with pytest.raises(ValueError):
        generate_sumset(IntegerSet.from_iterable([-1, 2]), 1)


def test_distribution_function_basics():
    squares = generate_polynomial([0, 0, 1], 20)
    assert distribution_function(squares, 100) == 10
    assert squares.distribution(0) == 0
    with_zero = IntegerSet.from_iterable([0, 3, -3])
    assert with_zero.distribution(0) == 1
    primes = generate_primes(10**4)
    assert primes.distribution(1000) == 168


def test_distribution_monotone_and_total():
    rng = random.Random(3)
    E = IntegerSet.from_iterable(rng.sample(range(-500, 500), 120))
    last = 0
    for t in range(0, 501, 7):
        cur = E.distribution(t)
        assert cur >= last
        last = cur
    assert E.distribution(E.max_abs) == len(E)


def test_json_round_trip_preserves_bignums():
    E = generate_geometric(3, 80)
    doc = json.loads(E.to_json())
    assert doc["elements"][-1] == str(3**80)
    back = IntegerSet.from_json(E.to_json())
    assert back.elements == E.elements
    assert back.label == E.label


def test_lines_round_trip():
    E = IntegerSet.from_iterable([-4, 4, 1], "x")
    assert IntegerSet.from_lines(E.to_lines()).elements == E.elements


def test_classify_growth_squares():
    E = generate_polynomial([0, 0, 1], 10**4)
    report = classify_growth(E)
    assert abs(report.epsilon_hat - 0.5) <= 0.05
    assert report.is_regular and report.is_polynomial


@pytest.mark.parametrize("d", [1, 2, 3])
def test_classify_growth_power_exponent(d):
    E = generate_polynomial([0] * d + [1], 10**4)
    report = classify_growth(E)
    assert abs(report.epsilon_hat - 1.0 / d) <= 0.05


def test_classify_growth_linear():
    report = classify_growth(generate_integers(10**4))
    assert report.epsilon_hat == pytest.approx(1.0, abs=1e-9)
    assert report.c_hat == pytest.approx(2.0, abs=1e-9)


def test_classify_growth_irregular_union():
    # doubling gaps: polynomial growth without regularity
    vals = []
    for k in range(3):
        lo = 2 ** (2 ** (2 * k))
        vals.extend(range(lo + 1, 2 * lo + 1))
    F = IntegerSet.from_iterable(vals, "F")
    report = classify_growth(F, fit_range=(8, 2**16))
    assert report.is_polynomial
    assert not report.is_regular
    assert report.c_hat == pytest.approx(1.0)


def test_classify_growth_beyond_float_range():
    # arithmetic progression scaled past 1e308: the doubling ratio still
    # reads 2 exactly, and the log-space grid must not overflow
    scale = 2**1200
    E = IntegerSet.from_iterable(k * scale for k in range(1, 3001))
    report = classify_growth(E, fit_range=(scale, E.max_abs // 2))
    assert report.c_hat == pytest.approx(2.0, abs=1e-6)
    assert report.is_regular and report.is_polynomial
    assert report.epsilon_hat < 0.05  # sparse at its own scale; regularity carries it


def test_classify_growth_insufficient_data():
    with pytest.raises(ValueError, match="insufficient data"):
        classify_growth(IntegerSet.from_iterable([1, 2, 3]), fit_range=(2, 3))


def test_growth_report_invariants():
    for E in (generate_primes(10**5), generate_polynomial([0, 0, 1], 3000)):
        report = classify_growth(E)
        if report.is_regular:
            assert report.is_polynomial
            assert 0 < report.epsilon_hat <= 1
            assert report.c_hat >= 1


def test_views_built_on_first_use():
    E = generate_primes(2**16)
    D = decompose(E, dyadic_partition(16))
    for S in (E, *D.blocks, D.remainder):
        assert not {"members", "array"} & set(vars(S)), S.label
    assert 65521 in E and "members" in vars(E) and "array" not in vars(E)
    assert E.array is E.array and E.array.dtype == np.int64


def test_abs_lookups_match_brute_force_with_negatives_and_ties():
    rng = random.Random(11)
    cuts = Partition((1, 4, 16, 30), "custom")
    for _ in range(30):
        vals = {rng.randint(-40, 40) for _ in range(rng.randint(0, 30))}
        vals |= {-v for v in rng.sample(sorted(vals), min(3, len(vals)))}  # ties |n| = |-n|
        E = IntegerSet.from_iterable(vals)
        assert E.max_abs == max(map(abs, vals), default=0)
        for t in range(45):
            assert E.distribution(t) == sum(abs(v) <= t for v in vals)
        D = decompose(E, cuts)
        bounds = (-1, *cuts.cut_points)
        for blk, lo, hi in zip(D.blocks, bounds, bounds[1:]):
            assert set(blk) == {v for v in vals if lo < abs(v) <= hi}
        assert set(D.remainder) == {v for v in vals if abs(v) > 30}


@pytest.mark.parametrize("top", [2**62 - 1, 2**62], ids=["below_2^62", "at_2^62"])
def test_int64_boundary_matches_python_references(top):
    # max |n| on either side of INT64_SAFE, with +-n ties at the top
    E = IntegerSet.from_iterable([1, -2, 2, 5, top - 4, -(top - 2), top - 2, -top, top])
    assert E.max_abs == top
    assert E.array.dtype == (np.int64 if top < INT64_SAFE else object)
    assert E.array.tolist() == list(E.elements)

    coeffs = np.linspace(-1.0, 1.0, len(E)) + 0.25j
    for M in (64, 7, 1, 1 << 10):
        assert np.array_equal(_grid_values(E.array, coeffs, M), _loop_grid_values(dict(zip(E, coeffs)), M))

    sched = uniform_schedule(E, Fraction(1, 2))
    trial = SelectionTrial(seed=0, selected=IntegerSet.from_iterable([-2, 5, top - 2, -top]))
    cap = 1 << 10
    for k in (4, 7, len(E)):
        spectrum = _psi_dict_spectrum(E, trial, sched, k)
        natural = 4 * max(map(abs, spectrum))
        M = min(natural, cap)
        value = float(np.max(np.abs(_loop_grid_values(spectrum, M))))
        sigma = float(sched.sigma_at(k))
        expected = PsiPoint(
            k=k, value=value, certified_bound=5.0 * value, certified=natural <= cap, grid_size=M,
            cap_active=natural > cap, sigma_k=sigma, selected_count=sum(n in trial.selected for n in E.elements[:k]),
            a_k=math.sqrt(12.0 * sigma * ln_int(abs(E.elements[k - 1]))),
        )
        assert psi(E, trial, sched, k, cap) == expected

    grouped = relations_grouped(2)
    sparse = IntegerSet.from_iterable([1, 4, 13, -(top - 7), top])
    for S in (E, sparse):
        report = is_s_independent(S, 2)
        assert report.independent == naive_s_independent(S.elements, grouped)
        # the first vanishing tuple in element order, per relation in search order
        first = next(
            ((rel, tup) for rel in _search_reps(2) for tup in permutations(S.elements, len(rel))
             if sum(c * q for c, q in zip(rel, tup)) == 0),
            (None, None),
        )
        assert (report.witness_relation, report.witness_elements) == first
    assert not is_s_independent(E, 2).independent and is_s_independent(sparse, 2).independent
