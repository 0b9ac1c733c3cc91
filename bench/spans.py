"""Span tracing from outside the program.

The tracer replaces a module attribute (for example
`lacunary.experiments.select`) with a wrapper that records a span: name,
start, end and the span that was open when it started. Spans stay in memory
and are written out once, at the end of a run. Patching the name the calling
module looks up leaves every file of the package untouched.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# An independence input is classed by what the benchmark can see of it: its
# size, its largest element and s. Sets of at most 126 elements keep every
# s = 2 enumeration of three positions under 2,000,000 tuples; below 2^59 the
# weight-4 sums fit in int64.
DFS_MAX_SIZE = 126
INT64_MAX_ABS = 1 << 59
INDEPENDENCE_CLASSES = ("dfs", "int64", "bignum", "s3")


def independence_class(E: Any, s: int) -> str:
    if s >= 3:
        return "s3"
    elems = tuple(E)
    if len(elems) <= DFS_MAX_SIZE:
        return "dfs"
    return "int64" if max(abs(n) for n in elems) < INT64_MAX_ABS else "bignum"


def _note_select(args, kwargs, result) -> dict:
    return {"scanned": result.source_size, "selected": len(result.selected)}


def _note_psi(args, kwargs, result) -> dict:
    return {
        "grid_points": result.grid_size,
        "uncertified": int(not result.certified),
        "cap_active": int(result.cap_active),
    }


def _note_independence(args, kwargs, result) -> dict:
    s = args[1] if len(args) > 1 else kwargs["s"]
    return {"class": independence_class(args[0], s), "dependent": int(not result.independent)}


def _note_weyl(args, kwargs, result) -> dict:
    return {"characters": result.k * len(result.points)}


def _note_scan(args, kwargs, result) -> dict:
    return {"characters": max(result.ks) * len(result.points)}


# Counts are read from public return values only.
NOTES: dict[str, Callable[[tuple, dict, Any], dict]] = {
    "selection.select": _note_select,
    "equidistribution.psi": _note_psi,
    "relations.is_s_independent": _note_independence,
    "equidistribution.weyl_means": _note_weyl,
    "equidistribution.equidistribution_scan": _note_scan,
}

# (module, attribute, span name): each layer's public entry points at the
# names the calling module imports. `experiments.build_source` opens every
# environment build, so its call count is the number of builds.
TARGETS = (
    ("lacunary.experiments", "build_source", "experiments.build_source"),
    ("lacunary.experiments", "build_partition", "experiments.build_partition"),
    ("lacunary.experiments", "build_schedule", "experiments.build_schedule"),
    ("lacunary.experiments", "generate_primes", "integer_sets.generate_primes"),
    ("lacunary.experiments", "classify_growth", "integer_sets.classify_growth"),
    ("lacunary.experiments", "decompose", "partitions.decompose"),
    ("lacunary.experiments", "verify_block_growth", "partitions.verify_block_growth"),
    ("lacunary.experiments", "blockwise_schedule", "selection.blockwise_schedule"),
    ("lacunary.experiments", "select", "selection.select"),
    ("lacunary.experiments", "is_s_independent", "relations.is_s_independent"),
    ("lacunary.experiments", "psi", "equidistribution.psi"),
    ("lacunary.experiments", "equidistribution_scan", "equidistribution.equidistribution_scan"),
    ("lacunary.selection", "uniform_schedule", "selection.uniform_schedule"),
    ("lacunary.selection", "select", "selection.select"),
    ("lacunary.selection", "is_s_independent", "relations.is_s_independent"),
)


@dataclass
class Span:
    id: int
    parent: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        span = Span(len(self.spans), self._stack[-1] if self._stack else -1, name, 0.0)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = perf_counter()
            self._stack.pop()
        note = NOTES.get(name)
        if note is not None:
            span.attrs = note(args, kwargs, result)
        return result

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.id, s.parent, s.name, round(s.start - t0, 9), round(s.end - t0, 9), s.attrs]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"columns": ["id", "parent", "name", "start", "end", "attrs"], "spans": rows}))


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_frac"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover; calls
    are single-threaded, so children never overlap."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-layer numbers from the spans of `ops` traced operations. Times and
    counts are per operation, so runs of different length compare; p50s are
    per call."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def p50(name: str) -> float:
        got = by_name.get(name)
        return statistics.median(s.duration for s in got) if got else 0.0

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, ()))

    m: dict[str, float] = {}
    sel = "selection.select"
    m[f"{sel}.s"] = total(sel) / ops
    m[f"{sel}.calls"] = calls(sel) / ops
    m[f"{sel}.p50_s"] = p50(sel)
    m[f"{sel}.elements_per_s"] = attr_sum(sel, "scanned") / total(sel) if calls(sel) else 0.0
    m[f"{sel}.scanned"] = attr_sum(sel, "scanned") / ops
    m[f"{sel}.selected"] = attr_sum(sel, "selected") / ops

    ps = "equidistribution.psi"
    m[f"{ps}.s"] = total(ps) / ops
    m[f"{ps}.calls"] = calls(ps) / ops
    m[f"{ps}.p50_s"] = p50(ps)
    for key in ("grid_points", "uncertified", "cap_active"):
        m[f"{ps}.{key}"] = attr_sum(ps, key) / ops

    for name in ("equidistribution.weyl_means", "equidistribution.equidistribution_scan"):
        m[f"{name}.s"] = total(name) / ops
        m[f"{name}.characters"] = attr_sum(name, "characters") / ops

    ind = by_name.get("relations.is_s_independent", [])
    for cls in INDEPENDENCE_CLASSES:
        got = [s for s in ind if s.attrs.get("class") == cls]
        key = f"relations.is_s_independent.{cls}"
        m[f"{key}.s"] = sum(s.duration for s in got) / ops
        m[f"{key}.calls"] = len(got) / ops
        m[f"{key}.dependent_frac"] = (
            sum(s.attrs["dependent"] for s in got) / len(got) if got else 0.0
        )

    m["partitions.decompose.s"] = total("partitions.decompose") / ops
    m["partitions.decompose.calls"] = calls("partitions.decompose") / ops
    m["integer_sets.generate_primes.s"] = total("integer_sets.generate_primes") / ops
    m["integer_sets.classify_growth.s"] = total("integer_sets.classify_growth") / ops
    m["experiments.build_env.calls"] = calls("experiments.build_source") / ops
    m["experiments.run_certification.s"] = total("experiments.run_certification") / ops

    own = self_times(spans)
    for module in ("experiments", "selection", "relations", "equidistribution", "partitions", "integer_sets"):
        m[f"{module}.self_s"] = (
            sum(t for s, t in zip(spans, own) if s.name.split(".", 1)[0] == module) / ops
        )
    return m
