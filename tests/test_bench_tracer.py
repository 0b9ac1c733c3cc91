"""The benchmark tracer in bench/spans.py times each layer by replacing the
names a calling module looks up. A refactor that drops such an import, or a
builder that binds its function when the module loads, hides those calls from
it; these checks catch that without running the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path

from lacunary import generate_integers, monte_carlo_dependence, run_certification
from test_experiments_cli import small_cert_config

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module through sys.modules while it executes
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve(monkeypatch):
    spans = _load_spans(monkeypatch)
    for module_name, attr, _ in spans.TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr, None)), f"{module_name}.{attr}"


def test_tracer_records_every_target(monkeypatch):
    spans = _load_spans(monkeypatch)
    runs = {
        "lacunary.experiments": lambda: run_certification(small_cert_config(trials=1)),
        "lacunary.selection": lambda: monte_carlo_dependence(generate_integers(256), 3, 2, 1, 0),
    }
    assert set(runs) == {module_name for module_name, _, _ in spans.TARGETS}
    for module_name, run in runs.items():
        tracer = spans.Tracer()
        tracer.install()
        try:
            run()
        finally:
            tracer.uninstall()
        recorded = {span.name for span in tracer.spans}
        expected = {name for mod, _, name in spans.TARGETS if mod == module_name}
        assert expected <= recorded, f"{module_name}: no span for {sorted(expected - recorded)}"
