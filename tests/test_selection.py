import json
import math
from fractions import Fraction

import pytest

from lacunary import (
    DensitySchedule,
    IntegerSet,
    SelectionTrial,
    blockwise_schedule,
    decompose,
    decreasing_density_schedule,
    dyadic_partition,
    factorial_block_schedule,
    generate_integers,
    generate_polynomial,
    generate_primes,
    gross_partition,
    mix64,
    monte_carlo_dependence,
    select,
    trial_seed,
    uniform_schedule,
)
from lacunary.selection import _mix64_block, _thresholds


def test_mix64_is_pure_and_spread():
    assert mix64(1, 0) == mix64(1, 0)
    assert mix64(1, 0) != mix64(1, 1)
    assert mix64(1, 0) != mix64(2, 0)
    words = {mix64(7, i) for i in range(10000)}
    assert len(words) == 10000


def test_vectorized_mixer_matches_scalar():
    block = _mix64_block(123456789, 4000)
    for i in (0, 1, 17, 3999):
        assert int(block[i]) == mix64(123456789, i)


def test_mixer_output_roughly_uniform():
    words = _mix64_block(2024, 1 << 16)
    mean = float(words.astype(float).mean()) / 2.0**64
    assert abs(mean - 0.5) < 0.01
    top_bytes = (words >> 56).astype(int)
    counts = [int((top_bytes == b).sum()) for b in range(256)]
    expected = (1 << 16) / 256
    assert all(abs(c - expected) < 5 * expected**0.5 for c in counts)


def test_select_certainty_and_impossibility():
    E = generate_integers(2000)
    assert select(E, uniform_schedule(E, 1), 9).selected.elements == E.elements
    assert len(select(E, uniform_schedule(E, 0), 9).selected) == 0


def test_select_reproducible_and_seed_sensitive():
    E = generate_primes(5000)
    sched = uniform_schedule(E, Fraction(1, 3))
    a = select(E, sched, 31)
    b = select(E, sched, 31)
    c = select(E, sched, 32)
    assert a.selected.elements == b.selected.elements
    assert a.selected.elements != c.selected.elements
    assert set(a.selected.elements) <= set(E.elements)


@pytest.mark.parametrize("n", [0, 1, 1023, 3000])
def test_select_scalar_and_vector_paths_identical(n):
    # select's vectorised mixer against the scalar rule, down to the empty set
    E = IntegerSet(tuple(range(1, n + 1)), f"1..{n}")
    sched = uniform_schedule(E, Fraction(2, 7))
    picked = select(E, sched, 5).selected.elements
    thresholds = _thresholds(sched.densities)
    manual = tuple(
        E.elements[i] for i in range(len(E)) if mix64(5, i) < thresholds[i]
    )
    assert picked == manual


def test_select_misaligned_schedule_rejected():
    E = generate_integers(100)
    other = generate_integers(101)
    sched = uniform_schedule(other, Fraction(1, 2))
    with pytest.raises(ValueError, match="misaligned"):
        select(E, sched, 1)


def test_select_binomial_band_over_seeds():
    E = generate_integers(10**4)
    sched = uniform_schedule(E, Fraction(1, 2))
    inside = 0
    for t in range(1000):
        count = len(select(E, sched, trial_seed(77, t)).selected)
        inside += 4700 <= count <= 5300
    assert inside >= 990


def test_blockwise_schedule_densities():
    E = generate_integers(2**10)
    D = decompose(E, dyadic_partition(10))
    ells = [min(k, len(b)) for k, b in enumerate(D.blocks)]
    sched = blockwise_schedule(D, ells)
    # full positive blocks: |E_k| = 2^(k-1), so delta = k / 2^(k-1)
    for blk in sched.blocks:
        if blk.k >= 1:
            assert blk.size == 2 ** (blk.k - 1)
            assert blk.delta == Fraction(blk.k, 2 ** (blk.k - 1))
    assert sched.sigma_at(len(E)) == sum(ells)


def test_blockwise_extremes():
    E = generate_primes(300)
    D = decompose(E, dyadic_partition(9))
    full = blockwise_schedule(D, [len(b) for b in D.blocks])
    assert all(d == 1 for d in full.densities)
    empty = blockwise_schedule(D, [0] * len(D.blocks))
    assert all(d == 0 for d in empty.densities)


def test_blockwise_rejects_oversized_ell():
    E = generate_primes(300)
    D = decompose(E, dyadic_partition(9))
    bad = [len(b) for b in D.blocks]
    bad[3] += 1
    with pytest.raises(ValueError, match="ell"):
        blockwise_schedule(D, bad)


def test_blockwise_remainder_gets_zero_density():
    E = generate_integers(20)
    D = decompose(E, dyadic_partition(3))  # covers up to 8
    sched = blockwise_schedule(D, [0, 1, 1, 2])
    assert len(sched) == len(E)
    assert all(d == 0 for d in sched.densities[8:])


def test_factorial_block_schedule_formula():
    E = generate_primes(2**22)
    D = decompose(E, gross_partition(4))
    sched = factorial_block_schedule(D)
    for j, blk in enumerate(sched.blocks):
        assert blk.ell == min(math.factorial(j + 2), blk.size)
    assert sched.blocks[3].ell == 120  # cap inactive on the big block
    diag = sched.diagnostics["per_block"]
    assert diag[2]["ell_over_log_next_cut"] == pytest.approx(16 / math.log(2**24))


def test_factorial_block_schedule_uncapped_small_blocks():
    # custom gross exponents widen the first annulus enough that the
    # factorial value 3! = 6 applies uncapped on block 1
    E = generate_polynomial([0, 0, 1], 1448)  # squares up to 2^21
    D = decompose(E, gross_partition(3, exponents=[4, 9, 21]))
    sched = factorial_block_schedule(D)
    assert len(D.blocks[1]) >= 6
    assert sched.blocks[1].ell == 6
    assert sched.blocks[2].ell == 24


def test_factorial_block_schedule_requires_gross():
    E = generate_primes(1000)
    D = decompose(E, dyadic_partition(10))
    with pytest.raises(ValueError, match="gross"):
        factorial_block_schedule(D)


def test_power_law_schedule_exact_harmonic():
    E = generate_polynomial([0, 0, 1], 10**4)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)
    assert sched.densities[0] == 1
    assert sched.densities[999] == Fraction(1, 1000)
    assert sched.diagnostics["condition_b_min_ratio"] == pytest.approx(1.0)
    # harmonic sum against log of the largest square: report the margin
    sigma = sched.diagnostics["sigma_final"]
    assert sigma == pytest.approx(sum(1 / k for k in range(1, 10**4 + 1)), rel=1e-9)
    ratio = sched.diagnostics["sigma_over_log_abs"][str(10**4)]
    assert ratio == pytest.approx(sigma / math.log(10**8), rel=1e-9)


def test_power_law_alpha_zero_and_validation():
    E = generate_integers(50)
    sched = decreasing_density_schedule(E, "power_law", alpha=0.0)
    assert all(d == 1 for d in sched.densities)
    with pytest.raises(ValueError):
        decreasing_density_schedule(E, "power_law", alpha=-0.5)
    with pytest.raises(ValueError, match="increasing"):
        decreasing_density_schedule(E, "custom", densities=[0.1, 0.2, 0.3] + [0.3] * 47)


def test_power_law_fractional_alpha_nonincreasing():
    E = generate_integers(500)
    sched = decreasing_density_schedule(E, "power_law", alpha=0.5)
    assert all(a >= b for a, b in zip(sched.densities, sched.densities[1:]))


def test_pace_based_schedule():
    E = generate_primes(10**4)
    sched = decreasing_density_schedule(E, "pace_based")
    assert all(a >= b for a, b in zip(sched.densities, sched.densities[1:]))
    assert sched.diagnostics["condition_a_min_ratio"] is not None


def test_lln_block_counts():
    E = generate_integers(2**12)
    D = decompose(E, dyadic_partition(12))
    ells = [min(k, len(b)) for k, b in enumerate(D.blocks)]
    sched = blockwise_schedule(D, ells)
    trials = 1000
    sums = [0] * len(sched.blocks)
    for t in range(trials):
        counts = select(E, sched, trial_seed(404, t)).block_counts
        for k, c in enumerate(counts):
            sums[k] += c
    for blk in sched.blocks:
        if blk.size == 0:
            continue
        mean = sums[blk.k] / trials
        var = blk.size * float(blk.delta) * (1 - float(blk.delta))
        se = math.sqrt(var / trials) if var else 0.0
        assert abs(mean - blk.ell) <= 3 * se + 1e-9


def test_monte_carlo_dependence_trivial_cases():
    E = IntegerSet.from_iterable([1, 2, 3])
    always = monte_carlo_dependence(E, 3, 2, 50, 1)
    assert always.frequency == 1.0  # 2*2 = 1+3 is always selected
    never = monte_carlo_dependence(E, 0, 2, 50, 1)
    assert never.frequency == 0.0
    assert never.bound == 0.0


def test_monte_carlo_dependence_below_bound():
    E = generate_integers(512)
    est = monte_carlo_dependence(E, 2, 2, 400, 3)
    assert est.bound == pytest.approx(12 * 16 / 512)
    assert est.frequency <= est.bound + 3 * est.wilson_half_width
    assert 0.0 <= est.wilson_low <= est.frequency <= est.wilson_high <= 1.0


def test_schedule_json_round_trips():
    E = generate_primes(500)
    D = decompose(E, dyadic_partition(9))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    doc = json.loads(sched.to_json())
    assert "blocks" in doc and "sigma" in doc
    back = DensitySchedule.from_json_dict(doc, E)
    assert back.densities == sched.densities

    entries = decreasing_density_schedule(generate_integers(40), "power_law", alpha=1.0)
    back2 = DensitySchedule.from_json_dict(json.loads(entries.to_json()))
    assert back2.densities == entries.densities
    assert back2.elements == entries.elements


def test_schedule_json_digest_mismatch():
    E = generate_primes(500)
    D = decompose(E, dyadic_partition(9))
    sched = blockwise_schedule(D, [0] * len(D.blocks))
    doc = json.loads(sched.to_json())
    with pytest.raises(ValueError, match="digest"):
        DensitySchedule.from_json_dict(doc, generate_primes(400))


def test_trial_json_round_trip():
    E = generate_primes(200)
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 12)
    back = SelectionTrial.from_json_dict(json.loads(trial.to_json()))
    assert back.selected.elements == trial.selected.elements
    assert back.seed == 12


def test_trial_bitmap_round_trip():
    E = generate_primes(2000)
    sched = uniform_schedule(E, Fraction(1, 3))
    trial = select(E, sched, 8)
    doc = trial.to_bitmap_json_dict(E)
    assert len(doc["bits_hex"]) == 2 * ((len(E) + 7) // 8)
    back = SelectionTrial.from_json_dict(doc, E)
    assert back.selected.elements == trial.selected.elements
    with pytest.raises(ValueError, match="digest"):
        SelectionTrial.from_json_dict(doc, generate_primes(1000))
    with pytest.raises(ValueError, match="source set"):
        SelectionTrial.from_json_dict(doc)


def test_trial_bitmap_bits_pinned():
    # the bytes the per-bit loop encoder wrote; 196 elements leave the last byte half used
    E = generate_primes(1200)
    trial = select(E, uniform_schedule(E, Fraction(1, 3)), 2024)
    doc = trial.to_bitmap_json_dict(E)
    assert doc["bits_hex"] == "4e4140b00694ac42c069045b3412604b60f8420a423a250002"
    assert SelectionTrial.from_json_dict(doc, E).selected == trial.selected
    with pytest.raises(ValueError, match="bitmap holds 24 bytes"):
        SelectionTrial.from_json_dict({**doc, "bits_hex": doc["bits_hex"][:-2]}, E)
