import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    psi,
    select,
    trial_seed,
    uniform_schedule,
)
from lacunary._util import wilson_interval
from lacunary.selection import BlockDensity
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


@pytest.mark.parametrize("ell", [1.7, 2.9, True])
def test_blockwise_refuses_an_ell_that_is_not_an_integer(ell):
    # int() would read 1.7 as 1, 2.9 as 2 and True as 1
    D = decompose(generate_integers(20), dyadic_partition(5))
    with pytest.raises(ValueError, match=f"ells must be integers, got {ell!r}"):
        blockwise_schedule(D, [0, 1, 1, ell, 2, 0])
    assert blockwise_schedule(D, [0, 1, 1, 2.0, 2, 0]) == blockwise_schedule(D, [0, 1, 1, 2, 2, 0])


@pytest.mark.parametrize("ell", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_blockwise_refuses_a_non_finite_ell(ell):
    # int() raises OverflowError on inf and an unnamed ValueError on nan
    D = decompose(generate_integers(20), dyadic_partition(5))
    with pytest.raises(ValueError, match=f"ells must be integers, got {ell!r}"):
        blockwise_schedule(D, [0, 1, 1, ell, 2, 0])


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
    assert back == sched and hash(back) == hash(sched)

    entries = decreasing_density_schedule(generate_integers(40), "power_law", alpha=1.0)
    back2 = DensitySchedule.from_json_dict(json.loads(entries.to_json()))
    assert back2.densities == entries.densities
    assert back2.elements == entries.elements
    assert back2 == entries


def test_schedule_equality_is_by_value():
    # equal but distinct Fractions read as one run of a shared object
    shared = DensitySchedule((1, 2, 3, 4), (Fraction(1, 3),) * 3 + (Fraction(0),))
    distinct = DensitySchedule((1, 2, 3, 4), (Fraction(1, 3), Fraction(2, 6), Fraction(1, 3), 0))
    assert distinct == shared and hash(distinct) == hash(shared)
    assert distinct.segments == ((0, 3, Fraction(1, 3)), (3, 1, Fraction(0)))
    assert distinct != DensitySchedule((1, 2, 3, 4), (Fraction(1, 3),) * 4)


def test_schedule_stores_segments_not_densities():
    # a blockwise schedule holds one segment per block at most, plus the tail
    E = generate_primes(2**16)
    D = decompose(E, dyadic_partition(16))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    assert len(sched.segments) <= len(sched.blocks) + 1
    sized = {name: len(value) for name, value in vars(sched).items() if hasattr(value, "__len__")}
    assert [name for name, size in sized.items() if size == len(E)] == ["elements"]


def test_schedule_constructor_takes_no_blocks():
    # blocks passed beside per-element densities would go unchecked: density
    # 1 on ten elements beside one block of size 8 would make select report
    # block_counts (8,) for 10 selected elements
    E = generate_integers(10)
    blocks = (BlockDensity(0, 8, 8, Fraction(1), 0),)
    with pytest.raises(TypeError, match="blocks"):
        DensitySchedule(E.elements, (Fraction(1),) * 10, blocks=blocks)
    assert DensitySchedule(E.elements, (Fraction(1),) * 10).blocks is None
    # _from_blocks lays the densities out from the blocks, so the two agree
    trial = select(E, DensitySchedule._from_blocks(E.elements, blocks, "custom"), 0)
    assert trial.block_counts == (8,) and len(trial.selected) == 8


def test_schedule_json_digest_mismatch():
    E = generate_primes(500)
    D = decompose(E, dyadic_partition(9))
    sched = blockwise_schedule(D, [0] * len(D.blocks))
    doc = json.loads(sched.to_json())
    with pytest.raises(ValueError, match="digest"):
        DensitySchedule.from_json_dict(doc, generate_primes(400))


def _shift_start(doc, k, by):
    doc["blocks"][k]["start"] += by
    return doc


def _add_ell(doc, k, by):
    doc["blocks"][k]["ell"] += by
    return doc


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda doc: _shift_start(doc, 5, 3), id="gap_before_block_5"),
        pytest.param(lambda doc: _shift_start(doc, 0, 1), id="first_start_not_0"),
        pytest.param(lambda doc: {**doc, "blocks": doc["blocks"][::-1]}, id="blocks_out_of_order"),
        pytest.param(
            lambda doc: {**doc, "blocks": doc["blocks"] + [{**doc["blocks"][-1], "start": 31, "size": 16}]}, id="past_the_set"
        ),
        pytest.param(lambda doc: _add_ell(doc, 5, 2), id="ell_not_delta_times_size"),
        pytest.param(lambda doc: {**doc, "blocks": [{**b, "k": 5} for b in doc["blocks"]]}, id="k_not_its_position"),
        # its ell agrees with delta * size, so only the length check refuses it
        pytest.param(
            lambda doc: {**doc, "blocks": doc["blocks"] + [{"k": 8, "ell": 0, "size": 16, "delta": "0", "start": 31}]},
            id="past_the_set_ell_consistent",
        ),
    ],
)
def test_schedule_json_blocks_must_tile(edit):
    # block_counts and the per-block sigma read each block's start and ell, the
    # densities are laid out by size and delta: a block list that does not tile
    # a prefix of the set from 0, or whose ell is not delta * size, would let them disagree
    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    doc = json.loads(sched.to_json())
    assert sum(b["size"] for b in doc["blocks"]) == 31 < len(E)
    back = DensitySchedule.from_json_dict(doc, E)
    assert [back.sigma_at(k) for k in range(len(E) + 1)] == [sum(back.densities[:k], Fraction(0)) for k in range(len(E) + 1)]
    with pytest.raises(ValueError):
        DensitySchedule.from_json_dict(edit(doc), E)


@pytest.mark.parametrize("delta", ["5", "-1/2"])
def test_schedule_json_empty_block_delta_checked(delta):
    # block 0 of the primes holds no element, yet its delta is written back
    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    doc = json.loads(blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)]).to_json())
    assert doc["blocks"][0]["size"] == 0
    doc["blocks"][0]["delta"] = delta
    with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
        DensitySchedule.from_json_dict(doc, E)


def test_elements_digest_pinned():
    # sha256 of the decimal elements, one per line, in the set's (|n|, n) order
    E = IntegerSet.from_iterable([3, -1, 2, 1, -3, 0], "ties")
    assert E.elements == (0, -1, 1, 2, -3, 3)
    expected = hashlib.sha256(b"0\n-1\n1\n2\n-3\n3\n").hexdigest()
    assert uniform_schedule(E, 0).to_json_dict()["elements_sha256"] == expected
    assert select(E, uniform_schedule(E, 1), 0).to_bitmap_json_dict(E)["elements_sha256"] == expected


_DENSITY = st.one_of(st.sampled_from([0, 1, Fraction(0), Fraction(1)]), st.fractions(0, 1, max_denominator=60))


@st.composite
def _per_element_schedules(draw):
    # runs of one shared object next to equal but distinct Fractions
    pool = draw(st.lists(_DENSITY, min_size=1, max_size=5))
    picks = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=40))
    densities = tuple(Fraction(pool[i]) if copy else pool[i] for i, copy in picks)
    return DensitySchedule(tuple(range(1, len(densities) + 1)), densities)


@st.composite
def _blockwise_schedules(draw):
    # sparse sets leave some dyadic blocks empty, and k_max below the largest
    # element leaves a remainder
    E = IntegerSet.from_iterable(draw(st.sets(st.integers(-300, 300), max_size=60)), "drawn")
    D = decompose(E, dyadic_partition(draw(st.integers(1, 10))))
    return blockwise_schedule(D, [draw(st.integers(0, len(blk))) for blk in D.blocks])


@settings(max_examples=300, deadline=None)
@given(st.one_of(_per_element_schedules(), _blockwise_schedules()))
def test_segments_are_the_densities(sched):
    n = len(sched)
    assert [sched.sigma_at(k) for k in range(n + 1)] == [sum(sched.densities[:k], Fraction(0)) for k in range(n + 1)]
    floats = sched.density_floats()
    assert floats.dtype == np.float64
    assert floats.tolist() == [float(d) for d in sched.densities]
    covered = 0
    for start, size, delta in sched.segments:
        assert start == covered and size >= 1
        assert all(d == delta for d in sched.densities[start : start + size])
        covered += size
    assert covered == n


def test_density_floats_are_converted_once_per_schedule():
    E = generate_polynomial([0, 0, 1], 2000)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)  # one segment per element
    floats = sched.density_floats()
    assert sched.density_floats() is floats and not floats.flags.writeable
    assert floats.tolist() == [float(d) for d in sched.densities]
    # the memo is no field: a schedule that has not built it is equal, and
    # its JSON and psi are the same bytes
    fresh = DensitySchedule(E.elements, sched.densities, kind=sched.kind)
    assert "_floats" not in vars(fresh) and fresh == sched
    trial = select(E, sched, 3)
    assert psi(E, trial, fresh, len(E), 1 << 12) == psi(E, trial, sched, len(E), 1 << 12)
    assert fresh.density_floats().tobytes() == floats.tobytes()
    doc = sched.to_json_dict()
    del doc["diagnostics"]
    assert json.dumps(fresh.to_json_dict()) == json.dumps(doc)


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


def test_trial_with_foreign_elements_refused():
    # a trial drawn from 1..50 read against the primes <= 200
    E = generate_primes(200)
    sched = uniform_schedule(E, Fraction(1, 2))
    foreign = select(generate_integers(50), uniform_schedule(generate_integers(50), Fraction(1, 2)), 3)
    assert not set(foreign.selected) <= set(E)
    with pytest.raises(ValueError, match="outside"):
        foreign.to_bitmap_json_dict(E)
    with pytest.raises(ValueError, match="outside"):
        psi(E, foreign, sched, len(E))
    # one element past the end of E counts as foreign too, at any prefix length
    beyond = SelectionTrial(seed=0, selected=IntegerSet((2, 3, 211)))
    with pytest.raises(ValueError, match="211 is outside"):
        psi(E, beyond, sched, 5)
    inside = SelectionTrial(seed=0, selected=IntegerSet((2, 3, 199)))
    assert SelectionTrial.from_json_dict(inside.to_bitmap_json_dict(E), E).selected.elements == (2, 3, 199)
    assert psi(E, inside, sched, 5).selected_count == 2


def test_trial_bitmap_bits_pinned():
    # the bytes the per-bit loop encoder wrote; 196 elements leave the last byte half used
    E = generate_primes(1200)
    trial = select(E, uniform_schedule(E, Fraction(1, 3)), 2024)
    doc = trial.to_bitmap_json_dict(E)
    assert doc["bits_hex"] == "4e4140b00694ac42c069045b3412604b60f8420a423a250002"
    assert SelectionTrial.from_json_dict(doc, E).selected == trial.selected
    with pytest.raises(ValueError, match="bitmap holds 24 bytes"):
        SelectionTrial.from_json_dict({**doc, "bits_hex": doc["bits_hex"][:-2]}, E)


def test_trial_bitmap_padding_bits_refused():
    # 196 elements use the low 4 bits of the last byte; a set bit above them names no element
    E = generate_primes(1200)
    doc = select(E, uniform_schedule(E, Fraction(1, 3)), 2024).to_bitmap_json_dict(E)
    assert doc["bits_hex"].endswith("02")
    with pytest.raises(ValueError, match="padding"):
        SelectionTrial.from_json_dict({**doc, "bits_hex": doc["bits_hex"][:-2] + "12"}, E)


_SMALL = st.integers(-40, 40)
_HUGE = st.one_of(st.integers(2**62, 2**70), st.integers(-(2**70), -(2**62)))


@st.composite
def _sets_with_subsets(draw):
    # small values tie as +-n and hold 0; a huge one makes the source an object array
    vals = draw(st.sets(_SMALL, max_size=30))
    vals |= {-v for v in draw(st.sets(st.sampled_from(sorted(vals)), max_size=5))} if vals else set()
    vals |= draw(st.sets(_HUGE, max_size=2)) if draw(st.booleans()) else set()
    E = IntegerSet.from_iterable(vals, "E")
    kept = draw(st.sets(st.sampled_from(E.elements))) if E.elements else set()
    # foreign elements fall before, inside and past E, huge ones against an int64 E too
    foreign = draw(st.sets(st.one_of(st.integers(-60, 60), _HUGE).filter(lambda n: n not in vals), max_size=3))
    return E, IntegerSet.from_iterable(kept | foreign, "sub"), foreign


@settings(max_examples=300, deadline=None)
@given(_sets_with_subsets())
def test_positions_and_mask_match_membership(case):
    E, sub, foreign = case
    trial = SelectionTrial(seed=0, selected=sub)
    if foreign:
        first = min(foreign, key=lambda n: (abs(n), n))
        for call in (lambda: E.positions(sub), lambda: trial.mask(E)):
            with pytest.raises(ValueError, match=f"^trial element {first} is outside 'E'$"):
                call()
    else:
        assert E.positions(sub).tolist() == [E.elements.index(n) for n in sub]
        assert trial.mask(E).tolist() == [n in sub.elements for n in E]


def _linear_blocks_on(E, k_max):
    D = decompose(E, dyadic_partition(k_max))
    return D, blockwise_schedule(D, [min(k, len(blk)) for k, blk in enumerate(D.blocks)])


def _factorial_cap_on_squares():
    D = decompose(generate_polynomial([0, 0, 1], 2048), gross_partition(4))
    return D, factorial_block_schedule(D)


def _round_tripped_linear_blocks():
    # k_max 10 leaves the primes above 2^10 as a remainder of density 0
    D, sched = _linear_blocks_on(generate_primes(5000), 10)
    return D, DensitySchedule.from_json_dict(json.loads(sched.to_json()), D.source)


@pytest.mark.parametrize(
    "make",
    [lambda: _linear_blocks_on(generate_primes(2**14), 14), _factorial_cap_on_squares, _round_tripped_linear_blocks],
    ids=["linear_blocks", "factorial_cap", "block_json_round_trip"],
)
def test_block_counts_are_the_selection_split_by_blocks(make):
    D, sched = make()
    assert sched.blocks is not None
    for seed in range(8):
        trial = select(D.source, sched, seed)
        assert trial.block_counts == tuple(len(b) for b in decompose(trial.selected, D.partition).blocks)


@pytest.mark.parametrize("E, ell, s", [(generate_integers(64), 2, 1), (IntegerSet(()), 0, 2)], ids=["s_1", "empty_set"])
def test_monte_carlo_dependence_refuses_before_any_trial(monkeypatch, E, ell, s):
    from lacunary import selection

    calls = []
    real_select = selection.select
    monkeypatch.setattr(selection, "select", lambda *args: calls.append(args) or real_select(*args))
    with pytest.raises(ValueError):
        monte_carlo_dependence(E, ell, s, 50, 0)
    assert calls == []


def test_schedule_json_entries_beside_blocks_refused():
    # a block list beside per-element entries would skip the tiling check that block_counts relies on
    E = generate_integers(20)
    doc = uniform_schedule(E, Fraction(1, 2)).to_json_dict()
    doc["blocks"] = [{"k": 0, "ell": 2, "size": 4, "delta": "1/2", "start": 10}]
    with pytest.raises(ValueError, match="entries or blocks, not both"):
        DensitySchedule.from_json_dict(doc, E)


def test_trial_json_block_counts_read_back():
    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    trial = select(E, blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)]), 12)
    assert trial.block_counts is not None
    back = SelectionTrial.from_json_dict(json.loads(trial.to_json()))
    assert back.block_counts == trial.block_counts
    assert trial.block_counts == tuple(len(b) for b in decompose(trial.selected, D.partition).blocks)
    assert (back.selected.elements, back.source_size, back.source_label) == (trial.selected.elements, len(E), E.label)


@pytest.mark.parametrize("form", ["elements", "bitmap"])
def test_trial_json_source_size_must_be_the_sets(form):
    E = generate_integers(10)
    trial = select(E, uniform_schedule(E, Fraction(1, 2)), 3)
    doc = trial.to_bitmap_json_dict(E) if form == "bitmap" else trial.to_json_dict()
    assert SelectionTrial.from_json_dict(doc, E).source_size == 10
    with pytest.raises(ValueError, match="key 'source_size' in .*trial JSON must be 10, the size of set '1..10', got 999"):
        SelectionTrial.from_json_dict({**doc, "source_size": 999}, E)
    if form == "elements":  # read without its set, the key is taken as written
        assert SelectionTrial.from_json_dict({**doc, "source_size": 999}).source_size == 999


@pytest.mark.parametrize(
    "schedule, against, message",
    [
        pytest.param(
            uniform_schedule(generate_integers(20), Fraction(1, 2)), generate_integers(21), "misaligned",
            id="entries_misaligned",
        ),
        pytest.param(
            blockwise_schedule(decompose(generate_integers(20), dyadic_partition(5)), [0, 1, 1, 2, 2, 0]), None,
            "needs the source set", id="blocks_without_set",
        ),
    ],
)
def test_schedule_json_read_against_its_set(schedule, against, message):
    with pytest.raises(ValueError, match=message):
        DensitySchedule.from_json_dict(json.loads(schedule.to_json()), against)


@pytest.mark.parametrize("bound", [0.0, 0.05, 0.5, 0.999, 1.0, 3.5])
def test_below_bound_with_slack_is_the_falsification_rule(bound):
    # a frequency is at most 1, so a bound of 1 or more is never falsified
    from lacunary.selection import below_bound_with_slack

    for dep in range(0, 41, 4):
        freq, (lo, hi) = dep / 40, wilson_interval(dep, 40)
        falsified = bound < 1.0 and freq > bound + 3.0 * ((hi - lo) / 2.0)
        assert below_bound_with_slack(freq, bound, lo, hi) is not falsified
