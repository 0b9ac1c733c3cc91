import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

from bench_pairs import _seeds, parse_run, src_lines, summarize  # noqa: E402

METRICS = [{"name": "ops_per_s", "better": "higher"}, {"name": "peak_rss_mb", "better": "lower"}]


def _stdout(ops_per_s, rss, failed=0):
    details = {"workload": "certify", "seed": 1}
    result = {
        "correct": not failed, "attempted": 10, "failed": failed,
        "metrics": {"ops_per_s": {"value": ops_per_s, "unit": "1/s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}},
    }
    return "set-up note\n" + json.dumps(details) + "\n" + json.dumps(result) + "\n"


def _runs(rows):
    runs = []
    for pair, (parent, change) in enumerate(rows):
        for side, out in (("parent", parent), ("change", change)):
            details, result = parse_run(_stdout(*out))
            runs.append({"workload": "certify", "pair": pair, "side": side, "details": details, "result": result})
    return runs


def test_summary_of_canned_result_lines():
    rows = [((3.0, 110.0), (3.1, 95.0)), ((2.9, 112.0), (2.9, 96.0)), ((3.2, 111.0), (3.0, 94.0, 1))]
    got = summarize(_runs(rows), METRICS)["certify"]
    ops = got["ops_per_s"]
    assert ops["pairs"] == {"parent": [3.0, 2.9, 3.2], "change": [3.1, 2.9, 3.0]}
    assert ops["change_wins"] == "1/3"  # the tie counts for neither side
    assert ops["parent"] == {"q1": 2.95, "median": 3.0, "q3": 3.1}
    assert ops["change"]["median"] == 3.0 and ops["median_change_frac"] == 0.0
    rss = got["peak_rss_mb"]
    assert rss["better"] == "lower" and rss["change_wins"] == "3/3"
    assert rss["median_change_frac"] == pytest.approx(95.0 / 111.0 - 1.0)
    assert got["failed"] == {"parent": 0, "change": 1}


def test_parse_run_needs_details_and_result():
    with pytest.raises(ValueError, match="1 line"):
        parse_run('{"correct": true}\n')


def test_unpaired_runs_refused():
    runs = _runs([((3.0, 110.0), (3.1, 95.0))])[:1]
    with pytest.raises(ValueError, match="1 parent runs against 0"):
        summarize(runs, METRICS)


def test_seed_ranges_and_src_lines(tmp_path):
    assert _seeds("271-274") == [271, 272, 273, 274] and _seeds("5") == [5]
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "src" / "b.py").write_text("z = 3\n")
    assert src_lines(tmp_path) == 3
