"""The JSON document base: every document writes through one `to_json`, reads
back through one `from_json`, and refuses an integer too long to write in
decimal in the program's own terms."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import lacunary as L
from lacunary import ExperimentConfig, IntegerSet, Partition
from lacunary._util import Doc, decimal_lines, decimal_strs
from lacunary.equidistribution import BernsteinValidation, sup_norm_via_grid, summing_matrix_check
from lacunary.integer_sets import GrowthReport
from lacunary.relations import count_representations
from lacunary.selection import DensitySchedule, DependenceEstimate, SelectionTrial, _digest

# 3^9013 has 4,301 digits, one more than Python writes in decimal
BIG = 3**9013
BIG_SET = IntegerSet((1, 2, BIG), "big")
_WRITE_LIMIT_HINT = "set_int_max_str_digits"

E = L.generate_primes(200)
D = L.decompose(E, L.dyadic_partition(7))
BLOCKS = L.blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
ENTRIES = DensitySchedule(E.elements, tuple(Fraction(1, k) for k in range(1, len(E) + 1)))
TRIAL = L.select(E, BLOCKS, 5)
CONFIG = ExperimentConfig(
    source={"kind": "primes", "limit": 4096},
    partition={"kind": "dyadic", "k_max": "auto"},
    schedule={"kind": "linear_blocks"},
    tail_start=8,
)
_SPECS = {key: getattr(CONFIG, key) for key in ("source", "partition", "schedule")}
POINTS = [L.CirclePoint.rational(1, 4), L.CirclePoint.angle(0.41421356)]
DOCS = {
    "set": E,
    "partition": L.dyadic_partition(7),
    "schedule_blocks": BLOCKS,
    "schedule_entries": ENTRIES,
    "trial": TRIAL,
    "independence": L.is_s_independent(E, 2),
    "weyl": L.weyl_means(E, 30, POINTS),
    "scan": L.equidistribution_scan(E, [10, 30], POINTS),
    "psi": L.psi(E, TRIAL, BLOCKS, 40),
    "dependence": L.monte_carlo_dependence(L.generate_integers(64), 2, 2, 20, 1),
    "bernstein": L.monte_carlo_bernstein(20, {"kind": "rademacher"}, [4.0, 8.0], 200, 1),
    "config": CONFIG,
}


def test_every_document_class_is_covered():
    assert {type(doc) for doc in DOCS.values()} == set(Doc.__subclasses__())


@pytest.mark.parametrize("indent", [None, 2])
@pytest.mark.parametrize("name", list(DOCS))
def test_to_json_is_json_dumps_of_to_json_dict(name, indent):
    doc = DOCS[name]
    # configs, like records, are written with sorted keys
    assert doc.to_json(indent) == json.dumps(doc.to_json_dict(), indent=indent, sort_keys=doc is CONFIG)


@pytest.mark.parametrize(
    "doc, args",
    [
        pytest.param(E, (), id="set"),
        pytest.param(L.gross_partition(3), (), id="partition"),
        pytest.param(CONFIG, (), id="config"),
        pytest.param(BLOCKS, (E,), id="schedule_blocks"),
        pytest.param(ENTRIES, (E,), id="schedule_entries"),
        pytest.param(ENTRIES, (), id="schedule_entries_without_the_set"),
    ],
)
def test_from_json_round_trips(doc, args):
    assert type(doc).from_json(doc.to_json(), *args) == doc


def test_trial_from_json_round_trips_in_both_forms():
    back = SelectionTrial.from_json(TRIAL.to_json(), E)
    assert back.to_json() == TRIAL.to_json() and back.block_counts == TRIAL.block_counts
    bitmap = json.dumps(TRIAL.to_bitmap_json_dict(E))
    back = SelectionTrial.from_json(bitmap, E)
    assert back.selected == TRIAL.selected and back.seed == TRIAL.seed
    assert json.dumps(back.to_bitmap_json_dict(E)) == bitmap


def _sup_with_big_frequency():
    return sup_norm_via_grid({1: 1.0, BIG: 0.5}, grid_cap=64).to_json_dict()


def _increasing_summing_matrix():
    return summing_matrix_check(DensitySchedule((1, 2), (Fraction(1, BIG), Fraction(1))), [2]).to_json_dict()


@pytest.mark.parametrize(
    "write, names",
    [
        pytest.param(
            lambda: L.is_s_independent(IntegerSet((BIG, 2 * BIG, 3 * BIG)), 2).to_json_dict(),
            r"2-independence witness: element \d of 3",
            id="witness",
        ),
        pytest.param(
            lambda: L.select(BIG_SET, L.uniform_schedule(BIG_SET, 1), 3).to_json_dict(),
            "trial of 'big': element 3 of 3",
            id="selection",
        ),
        pytest.param(_sup_with_big_frequency, "grid sup max_frequency: element 1 of 1", id="grid_sup_max_frequency"),
        pytest.param(
            lambda: Partition((1, BIG), "custom").to_json_dict(),
            "custom partition cut_points: element 2 of 2",
            id="custom_partition_cut",
        ),
        pytest.param(
            # the cut has 4,300 digits and is written; its block holds 2 * (cut - 1) integers, 4,301 digits
            lambda: L.decompose(IntegerSet((1, 2), "two"), Partition((1, 10**4300 - 1), "custom")).to_json_dict(),
            "decomposition of 'two' interval sizes: element 2 of 2",
            id="decomposition_interval_size",
        ),
        pytest.param(
            lambda: count_representations(IntegerSet((1, BIG)), 2).to_json_dict(),
            "2-fold representation counts totals: element 2 of 3",
            id="representation_counts",
        ),
        pytest.param(
            lambda: DensitySchedule((1, 2), (Fraction(1), Fraction(1, BIG))).to_json_dict(),
            r"the custom schedule's densities \(denominators\): element 2 of 2",
            id="rational_density",
        ),
        pytest.param(_increasing_summing_matrix, r"summing-matrix row 2 \(", id="summing_matrix_rational"),
        pytest.param(
            lambda: GrowthReport(0.5, 2.0, True, True, (2, BIG), 0.05, 16).to_json_dict(),
            "growth report fit_range: element 2 of 2",
            id="growth_fit_range",
        ),
        # a config is hashed after its last trial, so it refuses such a key when built
        pytest.param(lambda: ExperimentConfig(**{**_SPECS, "seed": BIG}), "config key 'seed': element 1 of 1", id="config_seed"),
        pytest.param(
            lambda: ExperimentConfig(**{**_SPECS, "grid_cap": BIG}), "config key 'grid_cap': element 1 of 1", id="config_grid_cap"
        ),
        pytest.param(
            lambda: DependenceEstimate(2, 2, 64, 20, 1, 0.05, 0.0, 0.3, 0.5, BIG).to_json_dict(),
            "seed of the 2-dependence estimate: element 1 of 1",
            id="dependence_estimate_seed",
        ),
        pytest.param(
            lambda: BernsteinValidation("rademacher", 5, 5.0, 10, BIG, ()).to_json_dict(),
            "seed of the rademacher Bernstein validation: element 1 of 1",
            id="bernstein_seed",
        ),
    ],
)
def test_unwritable_integer_refused_naming_its_document(write, names):
    with pytest.raises(ValueError, match=names + ".* has 4301 digits, past the 4300") as err:
        write()
    assert _WRITE_LIMIT_HINT not in str(err.value)


def test_selection_label_writes_its_seed_in_decimal():
    small = L.generate_integers(5)
    everything = L.uniform_schedule(small, 1)
    for seed in (0, 17, -3, 2**64 + 5, 10**4299):
        trial = L.select(small, everything, seed)
        assert trial.selected.label == f"1..5|seed{seed}"
        bitmap = trial.to_bitmap_json_dict(small)
        assert SelectionTrial.from_bitmap_json_dict(bitmap, small).selected.label == f"1..5|seed{seed}"
    refusal = "seed of a selection from '1..5': element 1 of 1 has 4301 digits, past the 4300"
    big_seed = {**bitmap, "seed": BIG}
    for make in (lambda: L.select(small, everything, BIG), lambda: SelectionTrial.from_bitmap_json_dict(big_seed, small)):
        with pytest.raises(ValueError, match=refusal) as err:
            make()
        assert _WRITE_LIMIT_HINT not in str(err.value)



def test_trial_writers_refuse_an_unwritable_seed_naming_the_trial():
    small = L.generate_integers(5)
    picked = IntegerSet((1, 3))
    # a seed of 4,300 digits is written as the bare JSON integer it always was
    fits = SelectionTrial(seed=10**4299, selected=picked, source_size=5, source_label="1..5")
    assert fits.to_json_dict()["seed"] == fits.to_bitmap_json_dict(small)["seed"] == 10**4299
    assert '"seed": 1' + "0" * 4299 + "," in fits.to_json()
    big = SelectionTrial(seed=BIG, selected=picked, source_size=5, source_label="1..5")
    for write in (big.to_json_dict, lambda: big.to_bitmap_json_dict(small)):
        with pytest.raises(ValueError, match="seed of trial of '1..5': element 1 of 1 has 4301 digits, past the 4300") as err:
            write()
        assert _WRITE_LIMIT_HINT not in str(err.value)

def test_dependence_estimate_refuses_an_unwritable_seed_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    with monkeypatch.context() as patched:
        patched.setattr(L.selection, "select", no_trial)
        with pytest.raises(ValueError, match="seed of the 2-dependence estimate: element 1 of 1 has 4301 digits") as err:
            L.monte_carlo_dependence(L.generate_integers(64), 2, 2, 20, BIG)
    assert _WRITE_LIMIT_HINT not in str(err.value)
    # a seed of 4,300 digits is written as the bare JSON integer it always was
    fits = L.monte_carlo_dependence(L.generate_integers(64), 2, 2, 20, 10**4299)
    assert '"seed": 1' + "0" * 4299 + "}" in fits.to_json()


def test_bernstein_validation_refuses_an_unwritable_seed_before_any_trial(monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    with monkeypatch.context() as patched:
        patched.setattr(L.equidistribution.np.random, "default_rng", no_trial)
        refusal = "seed of the rademacher Bernstein validation: element 1 of 1 has 4301 digits"
        with pytest.raises(ValueError, match=refusal) as err:
            L.monte_carlo_bernstein(5, {"kind": "rademacher"}, [1.0], 10, BIG)
    assert _WRITE_LIMIT_HINT not in str(err.value)
    # a seed of 4,300 digits is written as the bare JSON integer it always was
    fits = L.monte_carlo_bernstein(5, {"kind": "rademacher"}, [1.0], 10, 10**4299)
    assert '"seed": 1' + "0" * 4299 + "," in fits.to_json()


def test_only_a_long_integer_literal_is_refused_in_the_readers_terms():
    too_long = "IntegerSet JSON: an integer literal has more than 4300 digits"
    for text in ('{"elements": [1, ' + "7" * 5000 + "]}", b'{"elements": [1, ' + b"7" * 5000 + b"]}"):
        with pytest.raises(ValueError, match=too_long):
            IntegerSet.from_json(text)
    # malformed JSON and bytes that are not UTF-8 keep json.loads's own errors
    with pytest.raises(json.JSONDecodeError):
        IntegerSet.from_json('{"elements": [1,')
    with pytest.raises(UnicodeDecodeError):
        IntegerSet.from_json(b"\xff")
    assert IntegerSet.from_json(b'{"elements": [1, 2]}').elements == (1, 2)


def test_package_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == L.__version__


@pytest.mark.parametrize(
    "elements",
    [
        pytest.param((0, -1, 1, 2, -3, 3), id="signed"),
        pytest.param((3, -(3**80), 3**200, -(10**4299)), id="bignum"),
        pytest.param((), id="empty"),
        pytest.param((7,), id="one"),
        pytest.param(tuple(np.array([5, -2**40, 2**62], dtype=np.int64)), id="numpy_int64"),
        pytest.param((np.int32(-4), np.uint64(2**63), np.int8(0)), id="numpy_mixed"),
        pytest.param((True, False), id="bool"),
        pytest.param((1.5, -0.0, 1e300, float("nan")), id="float"),
        pytest.param([4, -4, 2**70], id="list"),
    ],
)
def test_decimal_lines_is_the_joined_decimal_strs(elements):
    assert decimal_lines(elements, "x") == "\n".join([*decimal_strs(elements, "x"), ""])


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(lambda: decimal_lines(BIG_SET.elements, "set 'big'"), id="decimal_lines"),
        pytest.param(BIG_SET.to_lines, id="to_lines"),
        pytest.param(lambda: _digest(BIG_SET.elements, "set 'big'"), id="digest"),
    ],
)
def test_decimal_lines_refuses_a_4301_digit_element_as_decimal_strs_does(write):
    with pytest.raises(ValueError) as want:
        decimal_strs(BIG_SET.elements, "set 'big'")
    assert str(want.value) == "set 'big': element 3 of 3 has 4301 digits, past the 4300 digits that can be written in decimal"
    with pytest.raises(ValueError) as err:
        write()
    assert str(err.value) == str(want.value)
