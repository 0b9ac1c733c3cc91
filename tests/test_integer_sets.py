import cmath
import json
import math
import random
import re
import warnings
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from lacunary import (
    CirclePoint,
    IntegerSet,
    Partition,
    PsiPoint,
    SelectionTrial,
    classify_growth,
    decompose,
    distribution_function,
    dyadic_partition,
    equidistribution_scan,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
    generate_sumset,
    is_s_independent,
    psi,
    uniform_schedule,
    weyl_means,
)
from lacunary import integer_sets
from lacunary._util import ln_int
from lacunary.equidistribution import _grid_values
from lacunary.integer_sets import INT64_SAFE, NUMPY_ORDER_CHECK, _abs_order_key, _abs_ordered
from lacunary.relations import _search_reps

from _oracles import bytearray_sieve_primes, is_prime_trial_division, naive_s_independent, relations_grouped
from test_equidistribution import _loop_grid_values, _loop_real_sup, _psi_dict_spectrum


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


def test_numpy_sieve_matches_the_bytearray_sieve():
    for limit in (*range(2001), 2**16):
        assert generate_primes(limit).elements == bytearray_sieve_primes(limit), limit
    assert {type(p) for p in generate_primes(2**16)} == {int}


def test_primes_are_in_abs_order():
    # generate_primes builds its set without the order check; the check runs here
    for limit in (*range(2001), 2**16):
        assert _abs_ordered(generate_primes(limit).elements), limit


def test_generated_sets_skip_the_order_check_that_caller_data_gets(monkeypatch):
    calls = []
    check = integer_sets._abs_ordered
    monkeypatch.setattr(integer_sets, "_abs_ordered", lambda elems: calls.append(len(elems)) or check(elems))
    generate_primes(2**16)
    IntegerSet.from_iterable(random.Random(7).sample(range(-(10**6), 10**6), 10**4))
    assert calls == []
    IntegerSet((1, 2, 3))  # the public constructor still checks
    assert calls == [3]


_ORDER_MESSAGE = "elements must be duplicate-free and sorted by |n| (negative first on ties)"
# magnitudes on either side of INT64_SAFE, where the numpy check hands over to
# the interpreted one, and 2^63, whose negation is the one int64 with no |n|
_NEAR_SAFE = (INT64_SAFE - 2, INT64_SAFE - 1, INT64_SAFE, INT64_SAFE + 1, 1 << 63)


@st.composite
def _long_int64_orders(draw):
    """A set of at least NUMPY_ORDER_CHECK int64 elements in (|n|, n) order,
    with 0 and a +-n tie, then perhaps one flaw: a duplicate, an out-of-order
    pair, a tie in the wrong order, the largest element moved to the front
    (where a key wrapped past int64 would read as smallest), or a shuffle."""
    rnd = random.Random(draw(st.integers(0, 2**32)))  # the bulk of the set, drawn outside hypothesis's data
    scale = draw(st.sampled_from([300, 1 << 40, INT64_SAFE - 3]))
    size = draw(st.integers(NUMPY_ORDER_CHECK, NUMPY_ORDER_CHECK + 40))
    mags = {0, 1, *draw(st.sets(st.sampled_from(_NEAR_SAFE)))}
    while len(mags) < size:
        mags.add(rnd.randrange(2, scale))
    elems = [0, -1, 1]  # 1 and -1 tie
    for m in mags - {0, 1}:
        elems += [-m] if m == 1 << 63 else rnd.choice(([m], [-m], [-m, m]))
    elems.sort(key=_abs_order_key)
    i = rnd.randrange(len(elems) - 1)
    flaw = draw(st.sampled_from(["none", "duplicate", "swap", "tie", "front", "shuffle"]))
    if flaw == "duplicate":
        elems.insert(i, elems[i])
    elif flaw == "swap":
        elems[i], elems[i + 1] = elems[i + 1], elems[i]
    elif flaw == "tie":
        j = rnd.choice([j for j in range(len(elems) - 1) if elems[j] == -elems[j + 1] != 0])
        elems[j], elems[j + 1] = elems[j + 1], elems[j]
    elif flaw == "front":
        elems.insert(0, elems.pop())
    elif flaw == "shuffle":
        rnd.shuffle(elems)
    return tuple(elems)


@settings(max_examples=150, deadline=None)
@given(_long_int64_orders())
@example((INT64_SAFE, *range(1, NUMPY_ORDER_CHECK)))  # 2^63 + 1 as a key wraps to the least int64
@example((-(1 << 63), *range(1, NUMPY_ORDER_CHECK)))  # the one int64 whose np.abs is negative
@example((-(INT64_SAFE - 1), *range(1, NUMPY_ORDER_CHECK)))  # in range: the numpy check refuses it itself
def test_numpy_order_check_agrees_with_the_abs_key_rule(elems):
    assert len(elems) >= NUMPY_ORDER_CHECK
    if all(map(lambda a, b: _abs_order_key(a) < _abs_order_key(b), elems, elems[1:])):
        assert IntegerSet(elems).elements == elems
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(_ORDER_MESSAGE)}$"):
            IntegerSet(elems)


def test_geometric_examples():
    assert generate_geometric(3, 4).elements == (3, 9, 27, 81)
    assert generate_geometric(2, 1).elements == (2,)
    E = generate_geometric(3, 80)
    assert E.elements[-1] == 3**80  # exact bignum, no overflow


def _polynomial_reference(coeffs, k_max):
    """P(1..k_max) by Horner's rule in Python ints, deduplicated and sorted by
    the (|n|, n) key, and the count of values that collapsed."""
    values = []
    for k in range(1, k_max + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = acc * k + c
        values.append(acc)
    return tuple(sorted(set(values), key=_abs_order_key)), len(values) - len(set(values))


def _check_polynomial(coeffs, k_max):
    want, collapsed = _polynomial_reference(coeffs, k_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        E = generate_polynomial(coeffs, k_max)
    assert E.elements == want and {type(n) for n in E} <= {int} and _abs_ordered(E.elements)
    assert E.label == "P(" + ",".join(map(str, coeffs)) + f")[1..{k_max}]"
    assert [str(w.message) for w in caught] == ([f"{collapsed} duplicate polynomial values collapsed"] if collapsed else [])
    assert all(w.filename == __file__ for w in caught)  # stacklevel names the caller


_COEFFICIENTS = st.one_of(
    st.integers(-12, 12),  # small: sign changes, +-n ties and collapsing values
    st.integers(-(2**40), 2**40),  # wide: a cubic term passes INT64_SAFE from k_max = 162
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_COEFFICIENTS, min_size=2, max_size=4), st.integers(1, 2 * NUMPY_ORDER_CHECK + 50))
@example([-25, 0, 1], 300)  # k^2 - 25 takes -24 at k = 1 and 24 at k = 7
@example([0, -10, 1], 400)  # k^2 - 10k repeats each value at k and 10 - k
@example([-(2**40), 2**40 - 1, 2**40 - 3, -(2**40)], 600)  # bignum values
def test_polynomial_matches_a_python_horner_reference(coeffs, k_max):
    assume(any(coeffs[1:]))
    _check_polynomial(coeffs, k_max)


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("bound", [INT64_SAFE - 1, INT64_SAFE], ids=["below_2^62", "at_2^62"])
def test_polynomial_int64_bound_edges(monkeypatch, bound, sign):
    # sum |c_i| k_max^i is INT64_SAFE - 1 (int64 Horner on an array) or
    # INT64_SAFE (Python ints); the sign only mirrors the values
    coeffs = [sign * (bound - 300), sign]
    seen = []
    sort = integer_sets._abs_sorted
    monkeypatch.setattr(integer_sets, "_abs_sorted", lambda values: seen.append(type(values)) or sort(values))
    _check_polynomial(coeffs, 300)
    assert seen == [np.ndarray if bound < INT64_SAFE else list]


def _from_iterable_inputs():
    rng = random.Random(31)
    int64 = [rng.randrange(-(2**50), 2**50) for _ in range(3 * NUMPY_ORDER_CHECK)]
    ties = [n for m in rng.sample(range(1, 10**6), NUMPY_ORDER_CHECK) for n in (m, -m)] + [0, 0, 5, 5]
    edges = [INT64_SAFE - 1, -(INT64_SAFE - 1), *range(-200, 200)]
    return {
        "int64": int64 + int64[:50],  # with duplicates
        "ties": ties,
        "edges": edges,  # |n| = INT64_SAFE - 1 stays on the numpy path
        "at_safe": edges + [INT64_SAFE],
        "int64_min": edges + [-(1 << 63)],
        "bignum": [3**k * (-1) ** k for k in range(1, 400)] + [-3, 3, 9],
        "mixed": int64 + [2**70, -(2**70), 2**63],
        "short": [5, -5, 3, 3, -1, 0],
        "set": set(int64),
        "generator": (n * n - 1000 for n in range(-300, 300)),
    }


@pytest.mark.parametrize("name", sorted(_from_iterable_inputs()))
def test_from_iterable_matches_the_sorted_set_reference(name):
    want = tuple(sorted(set(_from_iterable_inputs()[name]), key=_abs_order_key))
    E = IntegerSet.from_iterable(_from_iterable_inputs()[name], name)
    assert E.elements == want and E.label == name and {type(n) for n in E} == {int}
    assert _abs_ordered(E.elements)


@pytest.mark.parametrize("base", [2, 3, 10])
def test_geometric_matches_powers(base):
    E = generate_geometric(base, 700)
    assert E.elements == tuple(base**k for k in range(1, 701)) and _abs_ordered(E.elements)


def test_integers_are_in_abs_order():
    for n_max in (1, 2, NUMPY_ORDER_CHECK - 1, NUMPY_ORDER_CHECK, 10**4):
        E = generate_integers(n_max)
        assert E.elements == tuple(range(1, n_max + 1)) and _abs_ordered(E.elements)


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


@pytest.mark.parametrize("elements", [[1, -5, 3], [-1, 5, 3]], ids=["negative_last", "negative_first"])
def test_sumset_refuses_a_nonpositive_base_in_any_order(elements):
    # the elements run by |n|, so the negative one need not come first
    with pytest.raises(ValueError, match="strictly positive"):
        generate_sumset(IntegerSet.from_iterable(elements), 2)


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


@pytest.mark.parametrize(
    "text, entry",
    [
        pytest.param("1\nabc", "entry 2, 'abc'", id="not_an_integer"),
        pytest.param("7 8\n\n1.5\n", "entry 3, '1.5'", id="a_decimal"),
        pytest.param("1\n" + "9" * 5000, "entry 2, '9999", id="past_the_digit_limit"),
    ],
)
def test_from_lines_names_the_bad_entry(text, entry):
    with pytest.raises(ValueError, match=f"{entry}.*is not an integer of up to 4300 digits") as err:
        IntegerSet.from_lines(text)
    assert "set_int_max_str_digits" not in str(err.value) and len(str(err.value)) < 100


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
        value = _loop_real_sup(spectrum, M)
        sigma = float(sched.sigma_at(k))
        got = psi(E, trial, sched, k, cap)
        # the parity fold of an even grid sums in another order than the plain
        # transform, so the sup moves by ulps; every other field is exact
        tol = 1e-12 * sum(map(abs, spectrum.values()))
        assert abs(got.value - value) <= tol and abs(got.certified_bound - 5.0 * value) <= 5 * tol
        assert got.certified_bound == 5.0 * got.value
        expected = PsiPoint(
            k=k, value=got.value, certified_bound=got.certified_bound, certified=natural <= cap, grid_size=M,
            cap_active=natural > cap, sigma_k=sigma, selected_count=sum(n in trial.selected for n in E.elements[:k]),
            a_k=math.sqrt(12.0 * sigma * ln_int(abs(E.elements[k - 1]))),
        )
        assert got == expected

    # Weyl means and scan moduli against term-by-term characters of the exact residues;
    # n * a stays below INT64_SAFE on the short prefixes and crosses it on the full set
    points = [
        CirclePoint.rational(3, 7), CirclePoint.rational(5, 99991), CirclePoint.rational(12345, 2**62 + 7),
        CirclePoint.angle(0.1234), CirclePoint.angle(math.sqrt(2) - 1),
    ]

    def character(n, p):
        num, den = (p.a, p.q) if p.kind == "rational" else p.theta.as_integer_ratio()
        return cmath.exp(2j * cmath.pi * (n * num % den) / den)

    chars = [[character(n, p) for n in E.elements] for p in points]
    for k in (1, 4, len(E)):
        for got, row in zip(weyl_means(E, k, points).values, chars, strict=True):
            assert abs(got - sum(row[:k]) / k) <= 1e-9
    ks = (1, 4, 7, len(E))
    for k, moduli in zip(ks, equidistribution_scan(E, ks, points).moduli, strict=True):
        for got, row in zip(moduli, chars, strict=True):
            assert abs(got - abs(sum(row[:k])) / k) <= 1e-9

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
