import dataclasses
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from lacunary import ExperimentConfig, IntegerSet, run_block_independence, run_certification, save_record
from lacunary._util import canonical_json
from lacunary.cli import EXIT_FALSIFIED, EXIT_OK, EXIT_PRECONDITION, main
from lacunary.experiments import GrowthGateError, build_partition, build_schedule, build_source


def small_block_config(**overrides):
    base = dict(
        source={"kind": "integers", "n_max": 2048},
        partition={"kind": "dyadic", "k_max": "auto"},
        schedule={"kind": "linear_blocks"},
        s_values=(2,),
        trials=30,
        seed=17,
        tail_start=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def small_cert_config(**overrides):
    base = dict(
        source={"kind": "primes", "limit": 2**14},
        partition={"kind": "dyadic", "k_max": "auto"},
        schedule={"kind": "linear_blocks"},
        s_values=(2,),
        trials=12,
        seed=5,
        tail_start=9,
        scan_checkpoints=3,
        grid_cap=2**16,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_json_round_trip():
    cfg = small_block_config()
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg
    assert back.hash() == cfg.hash()
    # keys left out of a document take the dataclass defaults
    specs = {key: getattr(cfg, key) for key in ("source", "partition", "schedule")}
    assert ExperimentConfig.from_json_dict(specs) == ExperimentConfig(**specs)


# one bad value per key: unknown, wrong shape, unknown kind, out of range
BAD_VALUES = {
    "tirals": 5,
    "s_values": 2,
    "trials": "5",
    "compute_psi": "no",
    "partition": {"kind": "triadic"},
    "thresholds": {"tail": 0.5},
    "grid_cap": 0,
    "tail_start": -1,
    "source": {"kind": "integers"},
    "schedule": {"kind": "linear_blocks", "ells": [1]},
    "scan_points": ["x/y"],
    "seed": False,
    "psi_fractions": [True],
}


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_config_errors_name_the_key(key):
    doc = {**small_block_config().to_json_dict(), key: BAD_VALUES[key]}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_json_dict(doc)


# a config built in Python is held to the same rules as one loaded from JSON
@pytest.mark.parametrize(
    "key, value",
    [
        ("seed", "x"),
        ("grid_cap", 2.5),
        ("compute_psi", "no"),
        ("label", 3),
        ("trials", "5"),
        ("psi_fractions", 0.5),
        ("thresholds", None),
        ("trials", True),
        ("grid_cap", True),
        ("thresholds", {"psi_decay": True}),
    ],
)
def test_python_built_config_errors_name_the_key(key, value):
    with pytest.raises(ValueError, match=f"config key '{key}' must be"):
        small_block_config(**{key: value})


@pytest.mark.parametrize(
    "key, spec, name",
    [
        ("source", {"kind": "primes", "limit": [1]}, "source.limit"),
        ("source", {"kind": "integers", "n_max": True}, "source.n_max"),
        ("partition", {"kind": "dyadic", "k_max": "all"}, "partition.k_max"),
        ("partition", {"kind": "custom", "cut_points": [4, "64"]}, "partition.cut_points"),
        ("schedule", {"kind": "blockwise", "ells": 5}, "schedule.ells"),
    ],
)
def test_spec_value_errors_name_the_key(key, spec, name):
    with pytest.raises(ValueError, match=f"config key '{name}' must be"):
        small_block_config(**{key: spec})


def test_build_source_kinds():
    assert len(build_source({"kind": "primes", "limit": 100})) == 25
    assert build_source({"kind": "geometric", "base": 2, "k_max": 5}).elements == (2, 4, 8, 16, 32)
    sq = build_source({"kind": "polynomial", "coefficients": [0, 0, 1], "k_max": 4})
    assert sq.elements == (1, 4, 9, 16)
    with pytest.raises(ValueError):
        build_source({"kind": "nope"})


def test_build_partition_auto_covers_source():
    E = build_source({"kind": "primes", "limit": 2**16})
    P = build_partition({"kind": "dyadic", "k_max": "auto"}, E)
    assert P.cut_points[-1] >= E.max_abs


def test_block_independence_record_shape():
    record = run_block_independence(small_block_config())
    blocks = record.stages["blocks"]
    assert [b["k"] for b in blocks] == list(range(12))
    for b in blocks:
        cell = b["independence"]["2"]
        assert 0.0 <= cell["frequency"] <= 1.0
        assert cell["bound"] == pytest.approx(
            12 * b["ell"] ** 4 / b["size"] if b["size"] else 0.0
        )
    assert record.summary["lln_all_within_3se"] is True
    assert record.config_hash == small_block_config().hash()


def test_block_independence_deterministic_rerun():
    a = run_block_independence(small_block_config())
    b = run_block_independence(small_block_config())
    assert a.canonical_payload() == b.canonical_payload()
    assert json.dumps(a.canonical_payload(), sort_keys=True) == json.dumps(
        b.canonical_payload(), sort_keys=True
    )


def test_block_independence_threaded_matches_sequential():
    cfg = small_block_config(trials=16)
    seq = run_block_independence(cfg, threads=1)
    par = run_block_independence(cfg, threads=2)
    assert seq.canonical_payload() == par.canonical_payload()


def test_certification_threaded_matches_sequential():
    # the scan reads trial 0's selection from whichever worker ran trial 0
    cfg = small_cert_config(trials=4)
    seq = run_certification(cfg, threads=1)
    par = run_certification(cfg, threads=2)
    assert seq.canonical_payload() == par.canonical_payload()


def test_certification_records_psi_grids_and_certificates():
    # 4N at the full prefix is about 65,524: above a 2^15 cap, so that
    # checkpoint is uncertified in every trial, and the first one is not
    from lacunary.equidistribution import _fast_grid_size

    cfg = small_cert_config(trials=3, grid_cap=2**15)
    stage = run_certification(cfg).stages["psi"]
    first, last = (str(k) for k in stage["checkpoints"])
    for entry in stage["per_trial"]:
        assert set(entry["values"]) == set(entry["grid_sizes"]) == set(entry["certified"]) == {first, last}
        assert all(type(v) is float for v in entry["values"].values())
        assert entry["certified"] == {first: True, last: False}
        assert entry["grid_sizes"][last] == 2**15
        assert entry["grid_sizes"][first] == _fast_grid_size(entry["grid_sizes"][first])  # 5-smooth
    assert stage["uncertified_values"] == cfg.trials
    assert stage["decay_certified_trials"] == 0
    assert stage["decay_usable_trials"] == cfg.trials


@pytest.mark.parametrize(
    "run, cfg",
    [
        (run_certification, small_cert_config(trials=3)),
        (run_block_independence, small_block_config(trials=3)),
    ],
    ids=["certification", "block_independence"],
)
def test_sequential_run_builds_env_and_selects_once(monkeypatch, run, cfg):
    from lacunary import experiments

    calls = {"build_source": 0, "select": 0}

    def counted(name):
        real = getattr(experiments, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(experiments, name, counted(name))
    run(cfg, threads=1)
    assert calls == {"build_source": 1, "select": cfg.trials}


def test_more_threads_than_trials():
    cfg = small_block_config(trials=3)
    seq = run_block_independence(cfg, threads=1)
    par = run_block_independence(cfg, threads=8)
    assert seq.canonical_payload() == par.canonical_payload()


def test_block_independence_full_range_integers():
    # integers up to 2^18 with ell_k = k: every block satisfies ell_k = k
    # exactly, the per-block bound is 12 k^4 / 2^(k-1), and the empirical
    # frequency stays below bound plus slack in every block
    cfg = small_block_config(
        source={"kind": "integers", "n_max": 2**18}, trials=40, tail_start=10
    )
    record = run_block_independence(cfg)
    for b in record.stages["blocks"]:
        if b["k"] >= 1:
            assert b["ell"] == b["k"]
            assert b["independence"]["2"]["bound"] == pytest.approx(
                12 * b["k"] ** 4 / 2 ** (b["k"] - 1)
            )
            assert b["independence"]["2"]["below_bound_with_slack"]
    assert record.summary["per_s"]["2"]["all_tail_below_bound_with_slack"]


def test_block_independence_saturated_block_always_dependent():
    # a custom block holding {1,2,3} with full density is dependent in every
    # trial: 2*2 = 1 + 3 is always selected
    cfg = ExperimentConfig(
        source={"kind": "integers", "n_max": 64},
        partition={"kind": "custom", "cut_points": [4, 64]},
        schedule={"kind": "blockwise", "ells": [4, 0]},
        s_values=(2,),
        trials=25,
        seed=1,
        tail_start=0,
    )
    record = run_block_independence(cfg)
    assert record.stages["blocks"][0]["independence"]["2"]["frequency"] == 1.0
    assert record.stages["blocks"][1]["independence"]["2"]["frequency"] == 0.0


def test_block_independence_zero_ells_trivially_independent():
    cfg = small_block_config(schedule={"kind": "blockwise", "ells": [0] * 12}, trials=10)
    record = run_block_independence(cfg)
    for b in record.stages["blocks"]:
        assert b["independence"]["2"]["frequency"] == 0.0


def test_certification_record_shape():
    record = run_certification(small_cert_config())
    assert record.stages["growth"]["is_polynomial"] is True
    psi_stage = record.stages["psi"]
    assert psi_stage["checkpoints"][-1] == 1900  # primes below 2^14
    assert psi_stage["decay_fraction"] is not None
    assert record.stages["scan"] is not None
    assert record.summary["per_s"]["2"]["min_tail_independent_frequency"] is not None


def test_certification_squares_source_same_shape():
    cfg = small_cert_config(
        source={"kind": "polynomial", "coefficients": [0, 0, 1], "k_max": 1000},
        tail_start=8,
        trials=8,
    )
    record = run_certification(cfg)
    assert record.stages["growth"]["is_regular"] is True
    assert set(record.stages.keys()) == {
        "growth", "block_growth", "decomposition", "schedule", "blocks", "psi", "scan",
    }
    assert record.stages["psi"]["decay_fraction"] is not None


def test_certification_gross_case_records_factorial_ells():
    cfg = small_cert_config(
        source={"kind": "polynomial", "coefficients": [0, 0, 1], "k_max": 2048},
        partition={"kind": "gross"},  # defaults to 4 factorial cuts
        schedule={"kind": "factorial_cap"},
        trials=6,
        tail_start=2,
    )
    record = run_certification(cfg)
    blocks = record.stages["blocks"]
    assert len(blocks) == 4
    for b in blocks:
        assert b["ell"] == min(math.factorial(b["k"] + 2), b["size"])
    assert blocks[3]["ell"] == 120  # squares in (2^6, 2^24] are plentiful
    assert record.stages["schedule"]["kind"] == "factorial_cap"
    assert "sigma_vs_log_cut" in record.stages["schedule"]


def test_certification_one_psi_checkpoint_records_values_without_verdict(tmp_path, capsys):
    cfg = small_cert_config(psi_fractions=(0.5,))
    record = run_certification(cfg)
    psi_stage = record.stages["psi"]
    assert len(psi_stage["checkpoints"]) == 1
    assert [entry["trial"] for entry in psi_stage["per_trial"]] == list(range(cfg.trials))
    assert "uncertified_values" in psi_stage and "decay_fraction" not in psi_stage
    assert record.summary["psi_decay_fraction"] is None
    assert record.summary["psi_decay_meets_threshold"] is None
    # with the tail met, one checkpoint leaves nothing falsified
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(small_cert_config(psi_fractions=(0.5,), thresholds={"tail_independence": 0.0}).to_json())
    assert main(["--config", str(cfgfile), "--out", str(tmp_path), "pipeline", "certify"]) == EXIT_OK


def test_certification_psi_without_a_value_or_a_checkpoint():
    # blocks 0..7 of the primes <= 2^14 select nothing, so sigma_k = 0 at the
    # first checkpoint (k = 19, the prime 67) and psi has no value there
    ells = [0] * 8 + list(range(8, 15))
    cfg = small_cert_config(schedule={"kind": "blockwise", "ells": ells}, psi_fractions=(0.01, 1.0), trials=3)
    record = run_certification(cfg)
    stage = record.stages["psi"]
    first, last = (str(k) for k in stage["checkpoints"])
    assert first == "19"
    for entry in stage["per_trial"]:
        assert entry["values"][first] is None and entry["certified"][first] is None
        assert type(entry["values"][last]) is float
    assert stage["decay_usable_trials"] == 0 and stage["decay_fraction"] is None
    assert "decay_wilson_99" not in stage
    assert record.summary["psi_decay_fraction"] is None
    assert record.summary["psi_decay_meets_threshold"] is False
    # no fraction, no checkpoint: an empty stage without a verdict
    record = run_certification(small_cert_config(psi_fractions=(), trials=2))
    assert record.stages["psi"] == {"checkpoints": [], "per_trial": []}
    assert record.summary["psi_decay_fraction"] is None
    assert record.summary["psi_decay_meets_threshold"] is None


def test_unwritable_schedule_refused_before_any_trial(monkeypatch):
    from lacunary import experiments

    calls = []
    real = experiments.select
    monkeypatch.setattr(experiments, "select", lambda *args: calls.append(args) or real(*args))
    cfg = small_block_config(
        source={"kind": "geometric", "base": 3, "k_max": 9013},
        partition={"kind": "dyadic", "k_max": 20},
        trials=3,
        tail_start=1,
    )
    with pytest.raises(ValueError, match="4300 digits"):
        run_block_independence(cfg)
    assert calls == []


def test_psi_checkpoints_take_the_fraction_as_written():
    # 0.55 * 100 is 55.00000000000001 in floats, whose ceiling is 56
    cfg = small_cert_config(source={"kind": "integers", "n_max": 100}, tail_start=3, psi_fractions=(0.55, 1.0), trials=2)
    assert run_certification(cfg).stages["psi"]["checkpoints"] == [55, 100]


_WRITE_LIMIT_HINT = "set_int_max_str_digits"


@pytest.mark.parametrize(
    "partition, argv, names",
    [
        pytest.param(
            None, ["generate", "--geometric", "--base", "3", "--k-max", "9013"], "set '3^k[1..9013]'", id="generate"
        ),
        pytest.param({"kind": "dyadic", "k_max": 20}, [], "schedule's elements", id="pipeline_k_max_20"),
        pytest.param(
            {"kind": "dyadic", "k_max": "auto"}, [], '"auto" is 14286, from the source\'s largest element', id="pipeline_auto"
        ),
    ],
)
def test_unwritable_elements_refused_in_the_programs_terms(tmp_path, capsys, partition, argv, names):
    # 3^9013 has 4,301 digits, one more than Python writes in decimal
    if partition is not None:
        cfg = small_block_config(source={"kind": "geometric", "base": 3, "k_max": 9013}, partition=partition, tail_start=1)
        (tmp_path / "cfg.json").write_text(cfg.to_json())
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path), "pipeline", "block-independence"]
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert names in err and "4300 digits" in err and _WRITE_LIMIT_HINT not in err


@pytest.mark.parametrize("command", ["independence", "pipeline"])
def test_unreadable_integer_literal_refused_naming_the_document(tmp_path, capsys, command):
    # 5,000 digits, past the 4,300 that Python reads in decimal
    big = "7" * 5000
    if command == "independence":
        (tmp_path / "set.json").write_text(f'{{"elements": [1, {big}]}}')
        argv, names = ["independence", "--set", str(tmp_path / "set.json"), "--s", "2"], "IntegerSet JSON"
    else:
        text = small_cert_config(source={"kind": "integers", "n_max": 2048}).to_json()
        assert text.count("2048") == 1
        (tmp_path / "cfg.json").write_text(text.replace("2048", big))
        argv = ["--config", str(tmp_path / "cfg.json"), "--out", str(tmp_path), "pipeline", "certify"]
        names = "ExperimentConfig JSON"
    assert main(argv) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert f"{names}: an integer literal has more than 4300 digits" in err and _WRITE_LIMIT_HINT not in err


def test_set_writers_name_the_set_and_the_element():
    E = IntegerSet((1, 3**9013), "big")
    for write in (E.to_json_dict, E.to_lines):
        with pytest.raises(ValueError, match="set 'big': element 2 of 2 has 4301 digits, past the 4300") as err:
            write()
        assert _WRITE_LIMIT_HINT not in str(err.value)
    assert IntegerSet((1, 10**4299)).to_lines() == f"1\n{10**4299}\n"


def test_certification_growth_gate():
    # 40 powers of 3 still fit the margin at desk scale; 200 do not
    cfg = small_cert_config(source={"kind": "geometric", "base": 3, "k_max": 200})
    with pytest.raises(GrowthGateError) as err:
        run_certification(cfg)
    assert err.value.report.is_polynomial is False


def test_record_save_is_append_only(tmp_path):
    record = run_block_independence(small_block_config(trials=5))
    p1 = save_record(record, tmp_path)
    p2 = save_record(record, tmp_path)
    assert p1 != p2
    assert p1.exists() and p2.exists()
    assert json.loads(p1.read_text())["config_hash"] == record.config_hash


def test_record_save_never_overwrites_a_record_made_since_its_check(tmp_path, monkeypatch):
    # another run of the config, in the same second, writes the first file; with
    # Path.exists always False the window between a check and a write stays open
    record = run_block_independence(small_block_config(trials=5))
    first = save_record(record, tmp_path)
    first_bytes = first.read_bytes()
    monkeypatch.setattr(Path, "exists", lambda self: False)
    second = save_record(dataclasses.replace(record, elapsed_seconds=record.elapsed_seconds + 1), tmp_path)
    assert second == first.with_name(f"{first.stem}-1.json")
    assert first.read_bytes() == first_bytes
    assert json.loads(second.read_text())["elapsed_seconds"] == record.elapsed_seconds + 1


def test_record_rerun_byte_identical_modulo_timestamps(tmp_path):
    cfg = small_cert_config(trials=6)
    a = run_certification(cfg)
    b = run_certification(cfg)
    da, db = a.to_json_dict(), b.to_json_dict()
    for doc in (da, db):
        doc.pop("created_utc")
        doc.pop("elapsed_seconds")
    assert json.dumps(da, sort_keys=True).encode() == json.dumps(db, sort_keys=True).encode()


# -- CLI ----------------------------------------------------------------------


def test_cli_generate_primes(tmp_path, capsys):
    out = tmp_path / "primes.json"
    code = main(["generate", "--primes", "--limit", "100", "--out-file", str(out)])
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert len(doc["elements"]) == 25


@pytest.mark.parametrize(
    "exc, message",
    [
        (MemoryError("Unable to allocate 74.5 GiB for an array with shape (10000000001,)"), "Unable to allocate 74.5 GiB"),
        (MemoryError(), "MemoryError"),  # what a failed allocation of Python's own raises
    ],
    ids=["numpy", "bare"],
)
def test_cli_allocation_failure_ends_in_exit_3(monkeypatch, capsys, exc, message):
    def too_large(limit):
        raise exc

    monkeypatch.setattr("lacunary.cli.generate_primes", too_large)
    assert main(["generate", "--primes", "--limit", "10000000000"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1


def test_cli_elements_digest_is_the_sha256_of_the_lines_file(tmp_path):
    from lacunary import blockwise_schedule, decompose, dyadic_partition

    lines = tmp_path / "primes.lines"
    assert main(["generate", "--primes", "--limit", "500", "--format", "lines", "--out-file", str(lines)]) == EXIT_OK
    digest = hashlib.sha256(lines.read_bytes()).hexdigest()
    E = IntegerSet.from_lines(lines.read_text())
    D = decompose(E, dyadic_partition(9))
    schedule = tmp_path / "schedule.json"
    schedule.write_text(blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)]).to_json())
    bitmap = tmp_path / "bitmap.json"
    argv = ["select", "--set", str(lines), "--schedule", str(schedule), "--format", "bitmap", "--out-file", str(bitmap)]
    assert main(argv) == EXIT_OK
    assert json.loads(schedule.read_text())["elements_sha256"] == digest
    assert json.loads(bitmap.read_text())["elements_sha256"] == digest


def test_cli_generate_polynomial_lines(capsys):
    code = main(["generate", "--polynomial", "0,0,1", "--k-max", "4", "--format", "lines"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.split() == ["1", "4", "9", "16"]


def test_cli_generate_bignum_geometric(capsys):
    code = main(["generate", "--geometric", "--base", "3", "--k-max", "80", "--format", "lines"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.split()[-1] == str(3**80)


def test_cli_partition(tmp_path):
    out = tmp_path / "part.json"
    assert main(["partition", "--kind", "gross", "--k-max", "5", "--out-file", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["cut_points"][-1] == str(2**120)


def test_cli_partition_dyadic(tmp_path):
    out = tmp_path / "part.json"
    assert main(["partition", "--kind", "dyadic", "--k-max", "3", "--out-file", str(out)]) == EXIT_OK
    assert json.loads(out.read_text()) == {"kind": "dyadic", "cut_points": ["1", "2", "4", "8"]}


def test_cli_generate_sumset_with_label(tmp_path, capsys):
    base = tmp_path / "base.lines"
    base.write_text("1\n2\n4\n")
    assert main(["generate", "--sumset", str(base), "--j", "2", "--label", "pairs"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out) == {"label": "pairs", "elements": ["3", "5", "6"]}


def test_cli_generate_sumset_refuses_a_negative_base_element(tmp_path, capsys):
    base = tmp_path / "base.lines"
    base.write_text("1\n-5\n3\n")
    assert main(["generate", "--sumset", str(base), "--j", "2"]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and "strictly positive" in captured.err


def test_cli_lines_set_names_the_bad_entry(tmp_path, capsys):
    setfile = tmp_path / "set.lines"
    setfile.write_text("1\nabc\n")
    assert main(["independence", "--set", str(setfile), "--s", "2"]) == EXIT_PRECONDITION
    assert "error: entry 2, 'abc', is not an integer" in capsys.readouterr().err


def test_cli_select_block_schedule_writes_block_counts_and_bitmap(tmp_path):
    from lacunary import blockwise_schedule, decompose, dyadic_partition, generate_primes, select

    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    trial = select(E, sched, 5)
    paths = {name: tmp_path / f"{name}.json" for name in ("set", "schedule", "trial", "bitmap")}
    paths["set"].write_text(E.to_json())
    paths["schedule"].write_text(sched.to_json())
    argv = ["--seed", "5", "select", "--set", str(paths["set"]), "--schedule", str(paths["schedule"])]
    assert main([*argv, "--out-file", str(paths["trial"])]) == EXIT_OK
    doc = json.loads(paths["trial"].read_text())
    assert doc["block_counts"] == list(trial.block_counts) == [len(b) for b in decompose(trial.selected, D.partition).blocks]
    assert main([*argv, "--format", "bitmap", "--out-file", str(paths["bitmap"])]) == EXIT_OK
    assert json.loads(paths["bitmap"].read_text()) == trial.to_bitmap_json_dict(E)


def test_cli_select_density_zero_gives_empty_set(tmp_path):
    setfile = tmp_path / "set.json"
    main(["generate", "--integers", "--n-max", "50", "--out-file", str(setfile)])
    trialfile = tmp_path / "trial.json"
    selfile = tmp_path / "selected.json"
    code = main(
        [
            "--seed", "9", "select", "--set", str(setfile), "--density", "0",
            "--out-file", str(trialfile), "--selected-out", str(selfile),
        ]
    )
    assert code == EXIT_OK
    assert json.loads(trialfile.read_text())["selected"] == []
    assert json.loads(selfile.read_text())["elements"] == []


def test_cli_select_reproducible(tmp_path):
    setfile = tmp_path / "set.json"
    main(["generate", "--primes", "--limit", "5000", "--out-file", str(setfile)])
    t1, t2 = tmp_path / "t1.json", tmp_path / "t2.json"
    main(["--seed", "4", "select", "--set", str(setfile), "--density", "0.5", "--out-file", str(t1)])
    main(["--seed", "4", "select", "--set", str(setfile), "--density", "0.5", "--out-file", str(t2)])
    assert t1.read_text() == t2.read_text()


def test_cli_independence_exit_codes(tmp_path, capsys):
    dep = tmp_path / "dep.lines"
    dep.write_text("1\n2\n3\n")
    code = main(["independence", "--set", str(dep), "--s", "2"])
    assert code == EXIT_FALSIFIED
    out = capsys.readouterr().out
    assert '"independent": false' in out
    assert "witness" in out

    indep = tmp_path / "ind.lines"
    indep.write_text("1\n3\n9\n27\n")
    assert main(["independence", "--set", str(indep), "--s", "2"]) == EXIT_OK


def test_cli_weyl_scan_csv(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    main(["generate", "--polynomial", "0,0,1", "--k-max", "1000", "--out-file", str(setfile)])
    code = main(
        [
            "weyl", "--set", str(setfile), "--ks", "10,100,1000",
            "--points", "1/4,0.41421356237309515", "--format", "csv",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "k,max_off_exclusion"
    assert len(lines) == 4


def test_cli_weyl_without_ks_writes_the_means_at_the_full_prefix(tmp_path, capsys):
    from lacunary import CirclePoint, generate_integers, weyl_means

    setfile = tmp_path / "set.lines"
    setfile.write_text("".join(f"{n}\n" for n in range(1, 11)))
    assert main(["weyl", "--set", str(setfile)]) == EXIT_OK
    points = [CirclePoint.parse(p) for p in ("1/2", "0.41421356237309515")]
    assert json.loads(capsys.readouterr().out) == json.loads(weyl_means(generate_integers(10), 10, points).to_json())


def test_cli_psi_pipeline_files(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    main(["generate", "--primes", "--limit", "2000", "--out-file", str(setfile)])
    # uniform schedule written through select round trip
    schedfile = tmp_path / "sched.json"
    from lacunary import generate_primes, uniform_schedule

    sched = uniform_schedule(generate_primes(2000), 0.5)
    schedfile.write_text(sched.to_json())
    trialfile = tmp_path / "trial.json"
    main(["--seed", "3", "select", "--set", str(setfile), "--schedule", str(schedfile), "--out-file", str(trialfile)])
    code = main(["psi", "--set", str(setfile), "--schedule", str(schedfile), "--trial", str(trialfile), "--k", "200"])
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["k"] == 200 and doc["value"] >= 0


@pytest.mark.parametrize("cap", ["0", "-8"])
def test_cli_psi_grid_cap_below_one_exits_3(tmp_path, capsys, cap):
    from lacunary import generate_primes, select, uniform_schedule

    E = generate_primes(200)
    sched = uniform_schedule(E, 0.5)
    files = {"set": E.to_json(), "schedule": sched.to_json(), "trial": select(E, sched, 3).to_json()}
    for name, text in files.items():
        (tmp_path / f"{name}.json").write_text(text)
    argv = [a.format(**{n: str(tmp_path / f"{n}.json") for n in files}) for a in _PSI]
    assert main([*argv, "--grid-cap", cap]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == "" and f"error: grid_cap must be >= 1, got {cap}" in captured.err


def test_cli_montecarlo_dependence(tmp_path, capsys):
    setfile = tmp_path / "set.json"
    main(["generate", "--integers", "--n-max", "512", "--out-file", str(setfile)])
    code = main(
        ["--seed", "2", "montecarlo", "--mode", "dependence", "--set", str(setfile),
         "--ell", "2", "--s", "2", "--trials", "200"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["bound"] == pytest.approx(12 * 16 / 512)


def test_cli_montecarlo_bernstein(capsys):
    code = main(
        ["--seed", "1", "montecarlo", "--mode", "bernstein", "--n", "100",
         "--dist", "rademacher", "--a", "30,50", "--trials", "5000"]
    )
    assert code == EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_within_bound"] is True


def test_cli_pipeline_block_independence(tmp_path, capsys):
    cfg = small_block_config(trials=10)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    code = main(["--config", str(cfgfile), "--out", str(tmp_path), "pipeline", "block-independence"])
    out = capsys.readouterr().out
    assert "record:" in out
    records = list((tmp_path / "records").glob("*.json"))
    assert len(records) == 1
    assert code in (EXIT_OK, EXIT_FALSIFIED)


def test_cli_pipeline_env_out_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LACUNARY_OUT", str(tmp_path / "envout"))
    cfg = small_block_config(trials=5)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    main(["--config", str(cfgfile), "pipeline", "block-independence"])
    assert list((tmp_path / "envout" / "records").glob("*.json"))


def test_cli_pipeline_rerun_byte_identical(tmp_path, capsys):
    cfg = small_cert_config(trials=4)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(cfg.to_json())
    for _ in range(2):
        main(["--config", str(cfgfile), "--out", str(tmp_path), "pipeline", "certify"])
    a, b = sorted((tmp_path / "records").glob("*.json"))
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    for doc in (da, db):
        doc.pop("created_utc")
        doc.pop("elapsed_seconds")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_cli_precondition_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.lines"
    bad.write_text("1\n2\n")
    code = main(["select", "--set", str(bad)])  # neither density nor schedule
    assert code == EXIT_PRECONDITION


def _set(**changes):
    return lambda doc: {**doc, **changes}


@pytest.mark.parametrize(
    "edit, argv, kind, env_built",
    [
        pytest.param(_set(trials=0), [], "certify", False, id="zero_trials"),
        pytest.param(_set(trials=True), [], "certify", False, id="boolean_trials"),
        pytest.param(lambda doc: {k: v for k, v in doc.items() if k != "source"}, [], "certify", False, id="no_source"),
        pytest.param(lambda doc: doc, ["--threads", "-3"], "certify", False, id="negative_threads"),
        pytest.param(lambda doc: [], [], "certify", False, id="not_an_object"),
        pytest.param(_set(source="primes"), [], "certify", False, id="source_not_an_object"),
        pytest.param(_set(source={"kind": "squares"}), [], "certify", False, id="unknown_source_kind"),
        pytest.param(_set(s_values=2), [], "certify", False, id="s_values_not_a_list"),
        pytest.param(_set(thresholds=5), [], "certify", False, id="thresholds_not_an_object"),
        pytest.param(_set(tirals=5), [], "certify", False, id="unknown_key"),
        pytest.param(_set(s_values=[1]), [], "certify", False, id="s_below_2"),
        pytest.param(_set(s_values=[5]), [], "certify", False, id="s_above_max"),
        pytest.param(_set(thresholds={"psi_decay": 7}), [], "certify", False, id="threshold_above_1"),
        pytest.param(_set(psi_fractions=[0]), [], "certify", False, id="zero_psi_fraction"),
        pytest.param(_set(scan_checkpoints=0), [], "certify", False, id="zero_scan_checkpoints"),
        pytest.param(_set(source={"kind": "primes"}), [], "certify", False, id="spec_missing_key"),
        pytest.param(_set(partition={"kind": "dyadic", "base": 3}), [], "certify", False, id="spec_unknown_key"),
        pytest.param(_set(scan_points=["x/y"]), [], "certify", False, id="scan_point_not_a_number"),
        pytest.param(_set(scan_points=["nan"]), [], "certify", False, id="scan_point_nan"),
        pytest.param(_set(scan_points=["1/99999999999999999989"]), [], "certify", False, id="scan_point_past_int64"),
        pytest.param(_set(schedule={"kind": "uniform", "delta": "1/2"}), [], "certify", False, id="schedule_uniform"),
        pytest.param(_set(schedule={"kind": "power_law", "alpha": 1.0}), [], "certify", False, id="schedule_power_law"),
        pytest.param(_set(source={"kind": "primes", "limit": [1]}), [], "certify", False, id="spec_value_not_an_integer"),
        pytest.param(_set(schedule={"kind": "blockwise", "ells": 5}), [], "certify", False, id="spec_value_not_a_list"),
        pytest.param(_set(partition={"kind": "dyadic", "k_max": "all"}), [], "certify", False, id="spec_value_not_int_or_auto"),
        pytest.param(_set(tail_start=99), [], "certify", True, id="tail_start_past_blocks_certify"),
        pytest.param(_set(tail_start=99), [], "block-independence", True, id="tail_start_past_blocks_block"),
        # blocks 15..20 of the primes <= 2^14 and 4..6 of 1..3 hold no element
        pytest.param(_set(partition={"kind": "dyadic", "k_max": 20}, tail_start=15), [], "certify", True, id="empty_tail_certify"),
        pytest.param(
            _set(source={"kind": "integers", "n_max": 3}, partition={"kind": "dyadic", "k_max": 6}, tail_start=4),
            [], "block-independence", True, id="empty_tail_block",
        ),
        pytest.param(
            _set(partition={"kind": "gross", "exponents": [2, 4, 10**21]}), [], "certify", True, id="gross_cut_unprintable"
        ),
        # 3^9013 has 4,301 digits: the schedule digest cannot write it out
        pytest.param(
            _set(source={"kind": "geometric", "base": 3, "k_max": 9013}, partition={"kind": "dyadic", "k_max": 20}, tail_start=1),
            [], "block-independence", True, id="schedule_digest_unwritable",
        ),
    ],
)
def test_cli_pipeline_bad_input_exits_3(tmp_path, capsys, monkeypatch, edit, argv, kind, env_built):
    from lacunary import experiments

    builds = []
    real_build = experiments.build_source
    monkeypatch.setattr(experiments, "build_source", lambda spec: builds.append(spec) or real_build(spec))
    doc = edit(small_cert_config(trials=2).to_json_dict())
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(doc))
    code = main(["--config", str(cfgfile), "--out", str(tmp_path), *argv, "pipeline", kind])
    assert code == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()
    # a config that is wrong on its own is refused before any env is built
    assert len(builds) == int(env_built)


def _drop_block_k(doc):
    del doc["blocks"][1]["k"]
    return doc


def _zero_block_denominator(doc):
    doc["blocks"][1]["delta"] = "1/0"
    return doc


def _bool_block_delta(doc):
    doc["blocks"][1]["delta"] = True
    return doc


def _every_block_k_5(doc):
    for block in doc["blocks"]:
        block["k"] = 5
    return doc


def _empty_block_delta_5(doc):
    doc["blocks"][0]["delta"] = "5"  # block 0 of the primes is empty
    return doc


_SELECT = ["select", "--set", "{set}", "--schedule", "{schedule}"]
_PSI = ["psi", "--set", "{set}", "--schedule", "{schedule}", "--trial", "{trial}"]
_INDEPENDENCE = ["independence", "--set", "{set}", "--s", "2"]
_DIGEST_ONLY = {
    "schedule": lambda doc: {"elements_sha256": doc["elements_sha256"]},
    "trial": lambda doc: {"format": "bitmap", "elements_sha256": doc["elements_sha256"]},
}


@pytest.mark.parametrize(
    "argv, broken, edit, key",
    [
        pytest.param(_SELECT, "schedule", lambda doc: {}, "elements_sha256", id="select_schedule_empty"),
        pytest.param(_SELECT, "schedule", _drop_block_k, "blocks[1].k", id="select_schedule_block_without_k"),
        pytest.param(_SELECT, "schedule", _DIGEST_ONLY["schedule"], "blocks", id="select_schedule_digest_only"),
        pytest.param(_PSI, "schedule", lambda doc: {}, "elements_sha256", id="psi_schedule_empty"),
        pytest.param(_PSI, "schedule", _drop_block_k, "blocks[1].k", id="psi_schedule_block_without_k"),
        pytest.param(_PSI, "schedule", _DIGEST_ONLY["schedule"], "blocks", id="psi_schedule_digest_only"),
        pytest.param(_PSI, "trial", lambda doc: {}, "seed", id="psi_trial_empty"),
        pytest.param(_PSI, "trial", _DIGEST_ONLY["trial"], "bits_hex", id="psi_trial_digest_only"),
        # values of the wrong JSON shape
        pytest.param(_SELECT, "schedule", lambda doc: 5, "schedule JSON", id="select_schedule_number"),
        pytest.param(
            _SELECT, "schedule", lambda doc: {"elements_sha256": "x", "blocks": 5}, "blocks", id="select_schedule_blocks_number"
        ),
        pytest.param(_SELECT, "schedule", lambda doc: {"entries": 5}, "entries", id="select_schedule_entries_number"),
        pytest.param(_SELECT, "schedule", _zero_block_denominator, "blocks[1].delta", id="select_schedule_delta_over_zero"),
        pytest.param(_SELECT, "schedule", _bool_block_delta, "blocks[1].delta", id="select_schedule_delta_a_bool"),
        pytest.param(_SELECT, "schedule", _empty_block_delta_5, "density 5 outside", id="select_schedule_empty_block_delta_5"),
        pytest.param(
            _SELECT, "schedule", _every_block_k_5, "schedule block 0 (k 5,", id="select_schedule_block_k_misplaced"
        ),
        pytest.param(
            _SELECT, "schedule", lambda doc: {"entries": [["2", True]]}, "entries", id="select_schedule_entry_density_a_bool"
        ),
        pytest.param(_PSI, "trial", lambda doc: {"seed": 1, "selected": 5}, "selected", id="psi_trial_selected_number"),
        pytest.param(_PSI, "trial", lambda doc: {**doc, "bits_hex": "zz"}, "bits_hex", id="psi_trial_bits_not_hex"),
        pytest.param(_INDEPENDENCE, "set", lambda doc: {"label": "x"}, "elements", id="independence_set_no_elements"),
        pytest.param(_INDEPENDENCE, "set", lambda doc: {"elements": 5}, "elements", id="independence_set_elements_number"),
        pytest.param(
            _INDEPENDENCE, "set", lambda doc: {"elements": ["1", "x"]}, "elements", id="independence_set_element_not_an_integer"
        ),
        pytest.param(_INDEPENDENCE, "set", lambda doc: {"elements": [1.5]}, "elements", id="independence_set_element_a_float"),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "3"], "source_size": "x"}, "source_size",
            id="psi_trial_source_size_not_an_integer",
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "3"], "source_label": 5}, "source_label",
            id="psi_trial_source_label_a_number",
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {**doc, "source_label": 5}, "source_label", id="psi_bitmap_trial_source_label_a_number"
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {**doc, "source_size": 999}, "source_size", id="psi_trial_source_size_not_the_sets"
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "3"], "source_size": 999}, "source_size",
            id="psi_elements_trial_source_size_not_the_sets",
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "2", "3"]}, "selected", id="psi_trial_selected_repeats"
        ),
        pytest.param(_INDEPENDENCE, "set", lambda doc: {**doc, "label": 7}, "label", id="independence_set_label_a_number"),
        pytest.param(_SELECT, "schedule", lambda doc: {**doc, "kind": {"x": [1]}}, "kind", id="select_schedule_kind_an_object"),
        pytest.param(_PSI, "schedule", lambda doc: {**doc, "kind": 5}, "kind", id="psi_schedule_kind_a_number"),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "3"], "block_counts": [7, -3]}, "block_counts",
            id="psi_trial_block_count_negative",
        ),
        pytest.param(
            _PSI, "trial", lambda doc: {"seed": 1, "selected": ["2", "3"], "block_counts": [1, 2]}, "block_counts",
            id="psi_trial_block_counts_miss_the_selected_count",
        ),
        pytest.param(
            _INDEPENDENCE, "set", lambda doc: {"label": "x", "elements": ["3", "3", "5"]}, "elements",
            id="independence_set_elements_repeat",
        ),
    ],
)
def test_cli_json_missing_key_exits_3(tmp_path, capsys, argv, broken, edit, key):
    from lacunary import blockwise_schedule, decompose, dyadic_partition, generate_primes, select

    E = generate_primes(200)
    D = decompose(E, dyadic_partition(7))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    trial = select(E, sched, 5)
    docs = {"set": E.to_json_dict(), "schedule": sched.to_json_dict(), "trial": trial.to_bitmap_json_dict(E)}
    docs[broken] = edit(docs[broken])
    paths = {name: tmp_path / f"{name}.json" for name in docs}
    for name, doc in docs.items():
        paths[name].write_text(json.dumps(doc))
    code = main([arg.format(**paths) for arg in argv])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "error:" in err and key in err


def test_cli_psi_refuses_foreign_trial(tmp_path, capsys):
    # a trial drawn from 1..50, read against the primes <= 200
    from lacunary import generate_integers, generate_primes, select, uniform_schedule

    E, small = generate_primes(200), generate_integers(50)
    paths = {name: tmp_path / f"{name}.json" for name in ("set", "schedule", "trial")}
    paths["set"].write_text(E.to_json())
    paths["schedule"].write_text(uniform_schedule(E, 0.5).to_json())
    paths["trial"].write_text(select(small, uniform_schedule(small, 0.5), 3).to_json())
    code = main(["psi", "--set", str(paths["set"]), "--schedule", str(paths["schedule"]), "--trial", str(paths["trial"])])
    assert code == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "error:" in err and "outside" in err


def test_cli_weyl_point_past_int64_exits_3(tmp_path, capsys):
    setfile = tmp_path / "set.lines"
    setfile.write_text("1\n2\n3\n")
    assert main(["weyl", "--set", str(setfile), "--points", "1/99999999999999999989"]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "error:" in err and "fit int64" in err


@pytest.mark.parametrize(
    "extra, option",
    [
        pytest.param(["--points", ","], "--points", id="no_points"),
        pytest.param(["--ks", "3,x"], "--ks", id="ks_not_int"),
        pytest.param(["--points", "x/y"], "--points", id="points_not_parsable"),
    ],
)
def test_cli_weyl_bad_option_exits_3_naming_it(tmp_path, capsys, extra, option):
    setfile = tmp_path / "set.lines"
    setfile.write_text("1\n2\n3\n")
    assert main(["weyl", "--set", str(setfile), *extra]) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and option in captured.err


@pytest.mark.parametrize(
    "argv, option",
    [
        pytest.param(["montecarlo", "--mode", "bernstein", "--n", "10", "--a", "5,x"], "--a", id="a_not_float"),
        pytest.param(
            ["montecarlo", "--mode", "bernstein", "--n", "10", "--a", "5", "--dist", "selector:x"], "--dist",
            id="dist_not_float",
        ),
        pytest.param(["generate", "--polynomial", "1,x"], "--polynomial", id="polynomial_not_int"),
        pytest.param(
            ["partition", "--kind", "gross", "--k-max", "3", "--exponents", "1,x"], "--exponents",
            id="exponents_not_int",
        ),
        pytest.param(["partition", "--kind", "gross", "--k-max", "30"], "k_max", id="gross_k_max_30"),
        pytest.param(["partition", "--kind", "gross", "--k-max", "8"], "k_max", id="gross_k_max_8"),
        pytest.param(["partition", "--kind", "dyadic", "--k-max", "14285"], "k_max", id="dyadic_k_max_14285"),
        pytest.param(["montecarlo", "--mode", "dependence", "--ell", "2", "--s", "2"], "--set", id="dependence_no_set"),
        pytest.param(["montecarlo", "--mode", "bernstein", "--a", "5"], "--n", id="bernstein_no_n"),
        pytest.param(["montecarlo", "--mode", "bernstein", "--n", "10", "--a", "5", "--dist", "gauss"], "'gauss'", id="dist_unknown"),
        pytest.param(["pipeline", "certify"], "--config", id="pipeline_no_config"),
    ],
)
def test_cli_bad_list_option_exits_3_naming_it(capsys, argv, option):
    assert main(argv) == EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and option in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["independence", "--set", "{dir}", "--s", "2"], id="set_dir"),
        pytest.param(["--config", "{dir}", "pipeline", "certify"], id="config_dir"),
    ],
)
def test_cli_unreadable_path_exits_3(tmp_path, capsys, argv):
    # a directory where a file belongs is a precondition failure, not a crash
    code = main([arg.format(dir=tmp_path) for arg in argv])
    assert code == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err


# Golden values of the record contract. The rerun tests compare two runs of
# one build; these catch a change of config serialisation or record content
# across builds.
SMALL_BLOCK_CONFIG_HASH = "04c0cd4d8f2ce7c01b5114452c234afc8d8c274b30eae7c09e7e3ac70e050830"
SMALL_CERT_CONFIG_HASH = "e876e5e09439158a9d0dc9a6c588d725dca3b101835951a80d03e26149fc53e5"
SMALL_BLOCK_PAYLOAD_SHA256 = "d172130ef54243ffa9304e0ece9bd94772e5cdaadcf15c2630672f5e0775bd82"
SMALL_CERT_NO_FFT_PAYLOAD_SHA256 = "f3654fde93114cd5375ddf317d6631938bd9970e6b195de3ea9e444ca30f6978"
# the whole small certification record: psi at two checkpoints and the scan.
# It hashes FFT and np.exp output, so it holds for one numpy build (2.4.6 on x86-64)
SMALL_CERT_PAYLOAD_SHA256 = "f3e38dc6e954663f1e4de9944997add54c87f1b670483d28355c8bc68d42a080"


def test_config_hashes_and_record_bytes_pinned():
    assert small_block_config().hash() == SMALL_BLOCK_CONFIG_HASH
    assert small_cert_config().hash() == SMALL_CERT_CONFIG_HASH
    # the block record holds no FFT output, so its bytes are platform-independent
    payload = canonical_json(run_block_independence(small_block_config()).canonical_payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == SMALL_BLOCK_PAYLOAD_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_certification_record_bytes_pinned(threads):
    # without psi and the scan the certification record holds no FFT output
    cfg = small_cert_config(compute_psi=False, compute_scan=False)
    payload = canonical_json(run_certification(cfg, threads=threads).canonical_payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == SMALL_CERT_NO_FFT_PAYLOAD_SHA256


@pytest.mark.parametrize("threads", [1, 2])
def test_certification_record_with_psi_bytes_pinned(threads):
    record = run_certification(small_cert_config(), threads=threads)
    assert record.stages["psi"]["checkpoints"] == [475, 1900] and record.stages["scan"] is not None
    payload = canonical_json(record.canonical_payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == SMALL_CERT_PAYLOAD_SHA256


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["select", "--set", "{set}", "--density", "inf"], id="density_inf"),
        pytest.param(["select", "--set", "{set}", "--density", "nan"], id="density_nan"),
        pytest.param(["montecarlo", "--mode", "bernstein", "--n", "10", "--a", "inf", "--trials", "10"], id="bernstein_a_inf"),
        pytest.param(["montecarlo", "--mode", "bernstein", "--n", "10", "--a", "5,nan", "--trials", "10"], id="bernstein_a_nan"),
    ],
)
def test_cli_non_finite_argument_exits_3(tmp_path, capsys, argv):
    setfile = tmp_path / "ints.lines"
    setfile.write_text("1\n2\n3\n")
    code = main([arg.format(set=setfile) for arg in argv])
    assert code == EXIT_PRECONDITION
    assert "error:" in capsys.readouterr().err


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
