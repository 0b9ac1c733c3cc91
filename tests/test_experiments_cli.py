import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from lacunary import ExperimentConfig, run_block_independence, run_certification, save_record
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
}


@pytest.mark.parametrize("key", list(BAD_VALUES))
def test_config_errors_name_the_key(key):
    doc = {**small_block_config().to_json_dict(), key: BAD_VALUES[key]}
    with pytest.raises(ValueError, match=key):
        ExperimentConfig.from_json_dict(doc)


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
        pytest.param(_set(schedule={"kind": "uniform", "delta": "1/2"}), [], "certify", False, id="schedule_uniform"),
        pytest.param(_set(schedule={"kind": "power_law", "alpha": 1.0}), [], "certify", False, id="schedule_power_law"),
        pytest.param(_set(source={"kind": "primes", "limit": [1]}), [], "certify", False, id="spec_value_not_an_integer"),
        pytest.param(_set(schedule={"kind": "blockwise", "ells": 5}), [], "certify", False, id="spec_value_not_a_list"),
        pytest.param(_set(partition={"kind": "dyadic", "k_max": "all"}), [], "certify", False, id="spec_value_not_int_or_auto"),
        pytest.param(_set(tail_start=99), [], "certify", True, id="tail_start_past_blocks_certify"),
        pytest.param(_set(tail_start=99), [], "block-independence", True, id="tail_start_past_blocks_block"),
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


def test_config_hashes_and_record_bytes_pinned():
    assert small_block_config().hash() == SMALL_BLOCK_CONFIG_HASH
    assert small_cert_config().hash() == SMALL_CERT_CONFIG_HASH
    # the block record holds no FFT output, so its bytes are platform-independent
    payload = canonical_json(run_block_independence(small_block_config()).canonical_payload())
    assert hashlib.sha256(payload.encode()).hexdigest() == SMALL_BLOCK_PAYLOAD_SHA256


def test_cli_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2
