import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from lacunary import (
    CirclePoint,
    DensitySchedule,
    IntegerSet,
    bernstein_bound,
    blockwise_schedule,
    decompose,
    decreasing_density_schedule,
    dyadic_partition,
    equidistribution_scan,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
    monte_carlo_bernstein,
    psi,
    psi_series,
    select,
    summing_matrix_check,
    sup_norm_via_grid,
    uniform_schedule,
    weyl_means,
)
from lacunary.equidistribution import grid_values, is_excluded, rational_points
from lacunary.selection import trial_seed

from _oracles import direct_sup_on_grid


def test_circle_point_parsing_and_reduction():
    p = CirclePoint.parse("6/8")
    assert (p.a, p.q) == (3, 4)
    assert CirclePoint.rational(-1, 4).a == 3
    assert CirclePoint.parse("0.25").theta == 0.25
    with pytest.raises(ValueError):
        CirclePoint.rational(1, 0)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_circle_point_angle_must_be_finite(text):
    with pytest.raises(ValueError, match="finite"):
        CirclePoint.parse(text)


def test_weyl_at_one_is_exactly_one():
    E = generate_primes(10**4)
    for k in (1, 17, len(E)):
        r = weyl_means(E, k, [CirclePoint.rational(0, 1)])
        assert r.values[0] == 1 + 0j


def test_weyl_even_set_at_half_turn_exactly_one():
    E = IntegerSet.from_iterable(range(2, 4002, 2))
    for k in (1, 2, 1000, 2000):
        r = weyl_means(E, k, [CirclePoint.rational(1, 2)])
        assert r.values[0] == 1 + 0j


def test_weyl_integers_at_half_turn_alternating():
    E = generate_integers(501)
    for k in (1, 2, 7, 500, 501):
        v = weyl_means(E, k, [CirclePoint.rational(1, 2)]).values[0]
        assert v.imag == 0.0
        assert v.real == (0.0 if k % 2 == 0 else -1.0 / k)
        assert abs(v) <= 1.0 / k


def test_weyl_modulus_never_exceeds_one():
    rng = random.Random(12)
    E = IntegerSet.from_iterable(rng.sample(range(-10**6, 10**6), 500))
    pts = [CirclePoint.rational(3, 7), CirclePoint.angle(0.1234), CirclePoint.angle(0.9)]
    r = weyl_means(E, 500, pts)
    assert all(abs(v) <= 1 + 1e-12 for v in r.values)


def test_weyl_rational_vs_float_agreement():
    rng = random.Random(4)
    E = IntegerSet.from_iterable(rng.sample(range(1, 10**6), 2000))
    for _ in range(10):
        q = rng.randint(2, 10**6)
        a = rng.randint(1, q - 1)
        exact = weyl_means(E, 2000, [CirclePoint.rational(a, q)]).values[0]
        floated = weyl_means(E, 2000, [CirclePoint.angle(a / q)]).values[0]
        assert abs(exact - floated) < 1e-10


def test_weyl_bignum_frequencies():
    E = generate_geometric(3, 80)
    r = weyl_means(E, 80, [CirclePoint.rational(1, 27), CirclePoint.angle(0.333)])
    # 3^j = 0 mod 27 for j >= 3: the mean locks near 1
    assert abs(r.values[0] - 1) < 0.12
    assert abs(r.values[1]) <= 1 + 1e-12


def test_rational_points_farey_grid():
    pts = rational_points(5)
    labels = {p.label() for p in pts}
    assert labels == {
        "0/1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5", "4/5",
    }
    # Euler phi summation: 1 + phi(2) + ... + phi(5)
    assert len(pts) == 1 + 1 + 2 + 2 + 4


def test_exclusion_rules():
    assert is_excluded(CirclePoint.rational(1, 2), k=10)
    assert is_excluded(CirclePoint.rational(5, 16), k=10)
    assert not is_excluded(CirclePoint.rational(1, 27), k=10, radius_scale=0.0)
    # an angle right next to 1/2 is excluded while the radius covers it
    assert is_excluded(CirclePoint.angle(0.5 + 1e-6), k=10)
    assert not is_excluded(CirclePoint.angle(0.5 + 1e-2), k=1000)


def test_scan_squares_quarter_turn_obstruction():
    E = generate_polynomial([0, 0, 1], 10**4)
    quarter = CirclePoint.rational(1, 4)
    scan = equidistribution_scan(E, [10, 100, 1000, 10**4], [quarter])
    # residues n^2 mod 4 lie in {0, 1}: the mean tends to (1+i)/2
    tail = scan.moduli[-1][0]
    assert tail > 0.5
    assert abs(tail - abs((1 + 1j) / 2)) < 0.05
    # the point is rational with small denominator: excluded from the max
    assert scan.max_off_exclusion[-1] is None


def test_scan_squares_irrational_decay():
    E = generate_polynomial([0, 0, 1], 10**5)
    p = CirclePoint.angle(math.sqrt(2) - 1)
    scan = equidistribution_scan(E, [100, 10**3, 10**4, 10**5], [p])
    assert scan.moduli[-1][0] < 0.1
    assert scan.decreasing_fraction == 1.0


def test_scan_geometric_stays_large():
    E = generate_geometric(3, 20)
    pts = [
        CirclePoint.rational(1, 27),
        CirclePoint.rational(1, 81),
        CirclePoint.angle(math.sqrt(2) - 1),
        CirclePoint.angle((math.sqrt(5) - 1) / 2),
    ]
    scan = equidistribution_scan(E, list(range(1, 21)), pts, exclusion_radius_scale=0.0)
    assert all(m is not None and m >= 0.2 for m in scan.max_off_exclusion)


def test_scan_csv_output():
    E = generate_integers(100)
    scan = equidistribution_scan(E, [10, 100], [CirclePoint.angle(0.37)])
    lines = scan.to_csv().strip().splitlines()
    assert lines[0] == "k,max_off_exclusion"
    assert len(lines) == 3


def test_sup_norm_trivial_cases():
    r = sup_norm_via_grid({7: 1.0})
    assert r.coarse_sup == pytest.approx(1.0)
    assert r.bound == pytest.approx(5.0)
    assert r.certified
    r2 = sup_norm_via_grid({1: 1.0, 2: 1.0})
    assert r2.coarse_sup == pytest.approx(2.0)  # t = 1 lies on the grid
    assert r2.bound == pytest.approx(10.0)
    r3 = sup_norm_via_grid({})
    assert r3.coarse_sup == 0.0 and r3.bound == 0.0


def test_sup_norm_grid_cap_flagged():
    r = sup_norm_via_grid({3**40: 1.0, 1: -1.0}, grid_cap=4096)
    assert r.cap_active and not r.certified
    assert r.grid_size == 4096


def test_sup_norm_fine_grid_within_certificate():
    rng = random.Random(31)
    for _ in range(20):
        N = rng.randint(8, 64)
        support = rng.sample(range(-N, N + 1), rng.randint(3, 12))
        spectrum = {n: rng.choice([-1.0, 1.0]) for n in support}
        coarse = sup_norm_via_grid(spectrum)
        fine = direct_sup_on_grid(spectrum, 32 * max(abs(n) for n in support))
        assert fine <= 5 * coarse.coarse_sup + 1e-9
        assert fine + 1e-9 >= coarse.coarse_sup  # finer grid sees at least as much


def test_grid_values_match_direct_evaluation():
    spectrum = {-3: 1.0, 2: -0.5, 11: 2.0}
    M = 64
    vals = grid_values(spectrum, M)
    direct = [
        sum(c * np.exp(2j * np.pi * n * r / M) for n, c in spectrum.items()) for r in range(M)
    ]
    assert np.allclose(vals, direct, atol=1e-9)


def test_psi_zero_when_density_one():
    E = generate_primes(2000)
    D = decompose(E, dyadic_partition(11))
    sched = blockwise_schedule(D, [len(b) for b in D.blocks])
    trial = select(E, sched, 3)
    assert psi(E, trial, sched, len(E)).value == 0.0
    assert psi(E, trial, sched, 1).value == 0.0


def test_psi_single_prefix_is_zero():
    E = generate_integers(100)
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 41)
    if E.elements[0] in trial.selected:
        assert psi(E, trial, sched, 1).value == pytest.approx(0.0, abs=1e-15)


def test_psi_undefined_cases():
    E = generate_integers(100)
    zero = uniform_schedule(E, 0)
    trial = select(E, zero, 5)
    with pytest.raises(ValueError, match="psi undefined"):
        psi(E, trial, zero, 10)
    half = uniform_schedule(E, Fraction(1, 2))
    other = select(E, half, 5)
    empty_prefix = IntegerSet.from_iterable([n for n in other.selected if n > 50], "late")
    fake = type(other)(seed=5, selected=empty_prefix)
    with pytest.raises(ValueError, match="psi undefined"):
        psi(E, fake, half, 3)


def test_psi_decay_under_growing_sigma():
    # blockwise ell_k = k on squares: sigma ~ 354 >> log|n_k| ~ 18, so the
    # discrepancy shrinks from prefix 1e3 to 1e4 in essentially every seed
    E = generate_polynomial([0, 0, 1], 10**4)
    D = decompose(E, dyadic_partition(27))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    decays = 0
    for t in range(25):
        trial = select(E, sched, trial_seed(8812, t))
        lo = psi(E, trial, sched, 1000, grid_cap=2**18).value
        hi = psi(E, trial, sched, 10**4, grid_cap=2**18).value
        decays += hi < lo
    assert decays >= 23


def test_psi_marginal_harmonic_schedule_reported():
    # delta = 1/k on squares keeps sigma_k comparable to log|n_k| (the decay
    # hypothesis is marginal), so the decay frequency sits well below 45/50;
    # Monte Carlo oracle at this seed measured 37/50 (band allows FFT
    # rounding drift across library versions)
    E = generate_polynomial([0, 0, 1], 10**4)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)
    decays = 0
    for t in range(50):
        trial = select(E, sched, trial_seed(313, t))
        lo = psi(E, trial, sched, 1000, grid_cap=2**18).value
        hi = psi(E, trial, sched, 10**4, grid_cap=2**18).value
        decays += hi < lo
    assert 30 <= decays <= 44


def test_psi_matches_direct_mean_difference():
    # independent recomputation: evaluate both means pointwise on the same
    # grid with cmath and take the max modulus of the difference
    import cmath

    E = IntegerSet.from_iterable([1, 3, 4, 7, 11, 18, 29, 31])
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 99)
    k = len(E)
    assert 0 < len(trial.selected) < len(E)  # non-degenerate draw
    got = psi(E, trial, sched, k)
    assert got.grid_size == 4 * 31 and got.certified

    prefix = E.elements[:k]
    flags = [n in trial.selected for n in prefix]
    count = sum(flags)
    sigma = float(sched.sigma_at(k))
    M = 4 * 31
    best = 0.0
    for r in range(M):
        f_sel = sum(
            cmath.exp(2j * cmath.pi * n * r / M) for n, sel in zip(prefix, flags) if sel
        ) / count
        f_weighted = (
            sum(
                float(d) * cmath.exp(2j * cmath.pi * n * r / M)
                for n, d in zip(prefix, sched.densities)
            )
            / sigma
        )
        best = max(best, abs(f_sel - f_weighted))
    assert got.value == pytest.approx(best, abs=1e-10)


def _psi_dict_spectrum(E, trial, sched, k):
    """psi's spectrum built term by term into a dict, as sup_norm_via_grid takes it."""
    prefix = E.elements[:k]
    flags = [n in trial.selected for n in prefix]
    count = sum(flags)
    sigma_f = float(sched.sigma_at(k))
    spectrum = {}
    for n, d, sel in zip(prefix, sched.densities, flags):
        c = (1.0 / count if sel else 0.0) - float(d) / sigma_f
        if c != 0.0:
            spectrum[n] = c
    return spectrum


def _loop_grid_values(spectrum, M):
    arr = np.zeros(M, dtype=complex)
    for n, c in spectrum.items():
        arr[n % M] += c
    return np.fft.ifft(arr) * M


@pytest.mark.parametrize("source", ["primes", "geometric"])
def test_psi_array_path_equals_dict_path(source):
    # exact equality: the array path must fold and sum in the dict path's order
    if source == "primes":
        E = generate_primes(2**14)
        D = decompose(E, dyadic_partition(14))
        sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
        k, cap = len(E), 1 << 12
    else:
        E = generate_geometric(3, 200)  # past int64 from 3^40 on
        sched = uniform_schedule(E, Fraction(1, 3))
        k, cap = 150, 1 << 12
    trial = select(E, sched, 5)
    got = psi(E, trial, sched, k, cap)
    spectrum = _psi_dict_spectrum(E, trial, sched, k)
    ref = sup_norm_via_grid(spectrum, grid_cap=cap)
    assert got.cap_active and not got.certified and got.grid_size == cap
    assert (got.value, got.certified_bound, got.grid_size) == (ref.coarse_sup, ref.bound, ref.grid_size)
    assert got.value == float(np.max(np.abs(_loop_grid_values(spectrum, cap))))
    if source == "primes":
        assert len({n % cap for n in spectrum}) < len(spectrum)  # bins collide


def test_grid_values_equal_loop_reference():
    # colliding bins, negative and bignum frequencies, complex coefficients
    spectrum = {-3: 1.0, 2: -0.5 + 0.25j, 61: 2.0, 3**50: 0.1, -(3**45): -0.3j, 125: 1 / 3}
    for M in (64, 7, 1):
        assert np.array_equal(grid_values(spectrum, M), _loop_grid_values(spectrum, M))


def test_psi_series_diagnostics():
    E = generate_polynomial([0, 0, 1], 3000)
    D = decompose(E, dyadic_partition(24))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    trial = select(E, sched, 71)
    series = psi_series(E, trial, sched, [300, 1000, 3000], grid_cap=2**16)
    assert [p.k for p in series.points] == [300, 1000, 3000]
    for p in series.points:
        sigma = float(sched.sigma_at(p.k))
        n_k = E.elements[p.k - 1]
        assert p.a_k == pytest.approx(math.sqrt(12 * sigma * math.log(n_k)))
    csv = series.to_csv()
    assert csv.startswith("k,psi,")


def test_bernstein_bound_values():
    assert bernstein_bound(1, 1) == pytest.approx(4 * math.exp(-1 / 8))
    assert bernstein_bound(1, 1) == pytest.approx(3.5300, abs=5e-5)
    assert bernstein_bound(100, 60) == pytest.approx(4 * math.exp(-3600 / 640))
    assert bernstein_bound(100, 60) == pytest.approx(0.0144263, abs=5e-7)
    assert bernstein_bound(0, 40) == pytest.approx(4 * math.exp(-10))
    with pytest.raises(ValueError):
        bernstein_bound(1, 0)
    with pytest.raises(ValueError):
        bernstein_bound(-1, 1)


def test_monte_carlo_bernstein_rademacher():
    report = monte_carlo_bernstein(100, {"kind": "rademacher"}, [30, 101], 20000, 5)
    assert report.sigma == 100.0
    a30 = report.rows[0]
    assert a30[1] == pytest.approx(0.0027, abs=0.002)  # ~3 sigma tail
    assert a30[1] <= a30[2]
    assert report.rows[1][1] == 0.0  # deviation beyond n is impossible
    assert report.all_within_bound


def test_monte_carlo_bernstein_selector():
    report = monte_carlo_bernstein(
        1000, {"kind": "selector", "delta": 0.1}, [50], 20000, 6
    )
    assert report.sigma == pytest.approx(90.0)
    assert report.all_within_bound


def test_monte_carlo_bernstein_validates_boundedness():
    with pytest.raises(ValueError):
        monte_carlo_bernstein(10, {"kind": "uniform", "half_width": 1.5}, [1], 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_bernstein(10, {"kind": "selector", "delta": 1.5}, [1], 10, 0)
    ok = monte_carlo_bernstein(10, {"kind": "uniform", "half_width": 0.5}, [3], 5000, 1)
    assert ok.all_within_bound


def test_summing_matrix_constant_density_is_cesaro():
    E = generate_integers(20)
    sched = uniform_schedule(E, Fraction(1, 3))
    report = summing_matrix_check(sched)
    assert report.all_ok
    row = report.rows[9]  # k = 10
    assert row["row_sum"] == "1/1" and row["variation"] == "1/1"


def test_summing_matrix_harmonic_density_exact():
    E = generate_integers(40)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)
    report = summing_matrix_check(sched)
    assert report.all_ok
    assert all(r["row_sum_is_one"] and r["variation_is_one"] for r in report.rows)


def test_summing_matrix_random_nonincreasing_rational():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(3, 30)
        dens = []
        cur = Fraction(1)
        for _ in range(n):
            cur = min(cur, Fraction(rng.randint(1, 64), 64))
            dens.append(cur)
        sched = DensitySchedule(tuple(range(1, n + 1)), tuple(dens))
        assert summing_matrix_check(sched).all_ok


def test_summing_matrix_flags_increasing_schedule():
    sched = DensitySchedule((1, 2, 3), (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    report = summing_matrix_check(sched)
    assert not report.all_ok
    bad = report.rows[-1]
    assert not bad["variation_is_one"] and not bad["nonincreasing"]
    assert Fraction(bad["variation"]) > 1


def test_summing_matrix_skips_zero_sigma():
    sched = DensitySchedule((1, 2, 3), (Fraction(0), Fraction(0), Fraction(1)))
    report = summing_matrix_check(sched)
    assert report.skipped_zero_sigma == (1, 2)


def test_weyl_report_json():
    E = generate_integers(50)
    r = weyl_means(E, 50, [CirclePoint.rational(1, 2), CirclePoint.angle(0.3)])
    doc = json.loads(r.to_json())
    assert doc["k"] == 50
    assert len(doc["values"]) == 2
    assert doc["excluded"][0] is True
