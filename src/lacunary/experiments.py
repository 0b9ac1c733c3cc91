"""Experiment pipelines: seeded end-to-end runs with persisted configs and
append-only JSON records.

The almost-sure statements behind these experiments are not finitely
checkable; every record therefore carries frequencies over seeds with Wilson
intervals, compared against thresholds declared in the config.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Sequence

from ._util import canonical_json, ln_int, wilson_interval
from .equidistribution import (
    DEFAULT_GRID_CAP,
    CirclePoint,
    equidistribution_scan,
    psi,
)
from .integer_sets import (
    GrowthReport,
    IntegerSet,
    classify_growth,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
)
from .partitions import (
    BlockDecomposition,
    Partition,
    decompose,
    dyadic_partition,
    gross_partition,
    verify_block_growth,
)
from .relations import DEFAULT_S_MAX, dependence_probability_bound, is_s_independent
from .selection import DensitySchedule, blockwise_schedule, factorial_block_schedule, select, trial_seed

TOOL_VERSION = "0.1.0"

DEFAULT_SCAN_POINTS = (
    "1/2",
    "1/3",
    "1/4",
    "0.41421356237309515",
    "0.6180339887498949",
    "0.3183098861837907",
    "0.6931471805599453",
    "0.2817181715409549",
)


class GrowthGateError(ValueError):
    """Source failed the polynomial-growth gate; carries the fitted report."""

    def __init__(self, report: GrowthReport):
        self.report = report
        super().__init__(
            "source failed polynomial-growth classification "
            f"(epsilon_hat={report.epsilon_hat:.4f}, margin={report.margin})"
        )


# config.thresholds may name a subset of these; the rest keep their default
DEFAULT_THRESHOLDS = {"tail_independence": 0.95, "psi_decay": 0.90}

# per field annotation: the JSON shape from_json_dict accepts and the coercion
# it applies; tuple fields arrive as arrays
_SHAPES = {
    "dict": ("an object", dict, dict),
    "int": ("an integer", int, int),
    "bool": ("true or false", bool, bool),
    "str": ("a string", str, str),
}
_ARRAY = ("an array", list, tuple)


def _require(ok: bool, key: str, rule: str, value) -> None:
    if not ok:
        raise ValueError(f"config key {key!r} must be {rule}, got {value!r}")


def _in_range(values, lo, hi, kind=numbers.Real) -> bool:
    return all(isinstance(v, kind) and lo <= v <= hi for v in values)


def _is_point(text) -> bool:
    try:
        CirclePoint.parse(text)
    except (AttributeError, ValueError):
        return False
    return True


@dataclass
class ExperimentConfig:
    """The experiment contract. Its fields are the only statement of the
    config schema: JSON keys, defaults and coercions all derive from them."""

    source: dict
    partition: dict
    schedule: dict
    s_values: tuple[int, ...] = (2,)
    trials: int = 100
    seed: int = 0
    tail_start: int = 1
    grid_cap: int = DEFAULT_GRID_CAP
    psi_fractions: tuple[float, ...] = (0.25, 1.0)
    scan_points: tuple[str, ...] = DEFAULT_SCAN_POINTS
    scan_checkpoints: int = 4
    thresholds: dict = field(default_factory=lambda: dict(DEFAULT_THRESHOLDS))
    compute_psi: bool = True
    compute_scan: bool = True
    out_dir: str = ""
    label: str = ""
    schema: int = 1

    def __post_init__(self) -> None:
        if self.schema != 1:
            raise ValueError(f"unsupported config schema {self.schema!r}")
        for key, table in (("source", _SOURCES), ("partition", _PARTITIONS), ("schedule", _SCHEDULES)):
            spec = getattr(self, key)
            _require(isinstance(spec, dict), key, "an object", spec)
            _builder(table, key, spec)
        _require(
            bool(self.s_values) and _in_range(self.s_values, 2, DEFAULT_S_MAX, numbers.Integral),
            "s_values", f"a nonempty list of integers in 2..{DEFAULT_S_MAX}", self.s_values,
        )
        _require(
            set(self.thresholds) <= set(DEFAULT_THRESHOLDS) and _in_range(self.thresholds.values(), 0, 1),
            "thresholds", f"an object mapping {' or '.join(DEFAULT_THRESHOLDS)} to [0, 1]", self.thresholds,
        )
        _require(
            all(isinstance(f, numbers.Real) and 0 < f <= 1 for f in self.psi_fractions),
            "psi_fractions", "a list of numbers in (0, 1]", self.psi_fractions,
        )
        bad_points = [p for p in self.scan_points if not _is_point(p)]
        _require(not bad_points, "scan_points", 'a list of "a/q" or finite decimal turns', bad_points)
        for key, low in (("trials", 1), ("grid_cap", 1), ("scan_checkpoints", 1), ("tail_start", 0)):
            _require(getattr(self, key) >= low, key, f">= {low}", getattr(self, key))

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        return {key: list(v) if isinstance(v, tuple) else v for key, v in doc.items()}

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config must be a JSON object, got {type(doc).__name__}")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(doc) - set(known))
        if unknown:
            raise ValueError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
        missing = [
            name for name, f in known.items()
            if f.default is MISSING and f.default_factory is MISSING and name not in doc
        ]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        values = {}
        for key, value in doc.items():
            shape, accepted, coerce = _SHAPES.get(known[key].type, _ARRAY)
            _require(isinstance(value, accepted), key, shape, value)
            values[key] = coerce(value)
        return cls(**values)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(text))

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json_dict()).encode()).hexdigest()


# -- builders: one table per config object, keyed by its "kind" ----------------


def _dyadic(spec: dict, source: IntegerSet) -> Partition:
    k_max = spec.get("k_max", "auto")
    if k_max == "auto":
        k_max = max(1, (max(source.max_abs, 2) - 1).bit_length())
    return dyadic_partition(k_max)


def _linear_blocks(spec: dict, decomposition: BlockDecomposition) -> DensitySchedule:
    ells = [min(k, len(blk)) for k, blk in enumerate(decomposition.blocks)]
    return blockwise_schedule(decomposition, ells)


# the JSON shapes a spec value may take, as (rule, test); type() rules out bools
_INT = ("an integer", lambda v: type(v) is int)
_INTS = ("a list of integers", lambda v: isinstance(v, (list, tuple)) and all(type(x) is int for x in v))

# kind -> ({required key: shape}, {optional key: shape}, builder). The builders
# look up the generators in this module when they run, so a name patched here
# (as the benchmark tracer in bench/spans.py does) still sees every call.
_SOURCES = {
    "primes": ({"limit": _INT}, {}, lambda spec: generate_primes(spec["limit"])),
    "polynomial": (
        {"coefficients": _INTS, "k_max": _INT}, {}, lambda spec: generate_polynomial(spec["coefficients"], spec["k_max"])
    ),
    "geometric": ({"base": _INT, "k_max": _INT}, {}, lambda spec: generate_geometric(spec["base"], spec["k_max"])),
    "integers": ({"n_max": _INT}, {}, lambda spec: generate_integers(spec["n_max"])),
}
_PARTITIONS = {
    "dyadic": ({}, {"k_max": ('an integer or "auto"', lambda v: v == "auto" or type(v) is int)}, _dyadic),
    # four blocks by default: enough to show the factorial cuts at work
    "gross": (
        {}, {"k_max": _INT, "exponents": _INTS},
        lambda spec, source: gross_partition(spec.get("k_max", 4), spec.get("exponents")),
    ),
    "custom": ({"cut_points": _INTS}, {}, lambda spec, source: Partition(tuple(spec["cut_points"]), "custom")),
}
_SCHEDULES = {
    "linear_blocks": ({}, {}, _linear_blocks),
    "blockwise": ({"ells": _INTS}, {}, lambda spec, d: blockwise_schedule(d, spec["ells"])),
    "factorial_cap": ({}, {}, lambda spec, d: factorial_block_schedule(d)),
}


def _builder(table: dict, what: str, spec: dict):
    """The builder for spec's kind, once spec holds every key that kind
    requires, no key it does not take, and each value in its JSON shape."""
    kind = spec.get("kind")
    if kind not in table:
        raise ValueError(f"unknown {what} kind {kind!r}; known kinds: {', '.join(table)}")
    required, optional, build = table[kind]
    missing = [f"{what}.{key}" for key in required if key not in spec]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}, which {what} kind {kind!r} requires")
    shapes = {**required, **optional}
    unknown = sorted(f"{what}.{key}" for key in set(spec) - {"kind", *shapes})
    if unknown:
        raise ValueError(f"unknown config key(s) {', '.join(unknown)} for {what} kind {kind!r}")
    for key, (rule, ok) in shapes.items():
        if key in spec:
            _require(ok(spec[key]), f"{what}.{key}", rule, spec[key])
    return build


def build_source(spec: dict) -> IntegerSet:
    return _builder(_SOURCES, "source", spec)(spec)


def build_partition(spec: dict, source: IntegerSet) -> Partition:
    return _builder(_PARTITIONS, "partition", spec)(spec, source)


def build_schedule(spec: dict, decomposition: BlockDecomposition) -> DensitySchedule:
    return _builder(_SCHEDULES, "schedule", spec)(spec, decomposition)


@dataclass
class ExperimentRecord:
    pipeline: str
    config: ExperimentConfig
    config_hash: str
    stages: dict
    summary: dict
    created_utc: str
    elapsed_seconds: float
    tool_version: str = TOOL_VERSION
    schema: int = 1

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["config"] = self.config.to_json_dict()
        return doc

    def canonical_payload(self) -> dict:
        """Record content with volatile fields removed; two runs of the same
        config must agree on this byte for byte."""
        doc = self.to_json_dict()
        doc.pop("created_utc", None)
        doc.pop("elapsed_seconds", None)
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)


def save_record(record: ExperimentRecord, out_dir: str | Path) -> Path:
    """Write the record to a fresh file; existing records are never touched."""
    records_dir = Path(out_dir) / "records"
    records_dir.mkdir(parents=True, exist_ok=True)
    stamp = record.created_utc.replace(":", "").replace("-", "")
    base = f"{record.pipeline}-{record.config_hash[:12]}-{stamp}"
    path = records_dir / f"{base}.json"
    counter = 1
    while path.exists():
        path = records_dir / f"{base}-{counter}.json"
        counter += 1
    path.write_text(record.to_json())
    return path


def _utc_now() -> str:
    return _dt.datetime.now(_dt.timezone.utc).strftime("%Y%m%dT%H%M%SZ")


# -- shared environment -------------------------------------------------------


@dataclass
class _Env:
    source: IntegerSet
    partition: Partition
    decomposition: BlockDecomposition
    schedule: DensitySchedule


def _build_env(config: ExperimentConfig) -> _Env:
    source = build_source(config.source)
    partition = build_partition(config.partition, source)
    decomposition = decompose(source, partition)
    schedule = build_schedule(config.schedule, decomposition)
    return _Env(source, partition, decomposition, schedule)


def _schedule_stage(env: _Env) -> dict:
    doc = env.schedule.to_json_dict()
    # sum of ells below each block against the log of its upper cut: inside
    # block k every |n| is at most p_k while sigma has already absorbed the
    # full lower blocks, so this ratio is the finite surrogate for sigma
    # outgrowing log|n|
    cuts = env.partition.cut_points
    ratios = []
    running = 0
    for blk in env.schedule.blocks:
        if blk.k >= 1:
            log_cut = ln_int(cuts[blk.k]) if cuts[blk.k] > 1 else None
            ratio = (running / log_cut) if log_cut else None
            ratios.append({"k": blk.k, "ell_sum_below": running, "log_upper_cut": log_cut, "ratio": ratio})
        running += blk.ell
    doc["sigma_vs_log_cut"] = ratios
    return doc


# -- trial kernel -------------------------------------------------------------


def _trial_rows(
    config: ExperimentConfig, env: _Env, indices: Sequence[int], psi_ks: Sequence[int]
) -> list[dict]:
    """Each trial of both pipelines: select, split the selection into blocks,
    test every block for s-independence and take psi at psi_ks. Trial 0's
    row also carries its selected set, which the certification scan reads."""
    out = []
    for t in indices:
        trial = select(env.source, env.schedule, trial_seed(config.seed, t))
        picked = decompose(trial.selected, env.partition)
        row: dict = {
            "trial": t,
            "block_counts": [len(b) for b in picked.blocks],
            "dependent": {
                str(s): [
                    0 if is_s_independent(blk, s).independent else 1 for blk in picked.blocks
                ]
                for s in config.s_values
            },
        }
        if psi_ks:
            psi_vals = {}
            for k in psi_ks:
                try:
                    psi_vals[str(k)] = psi(env.source, trial, env.schedule, k, config.grid_cap).value
                except ValueError:
                    psi_vals[str(k)] = None
            row["psi"] = psi_vals
        if t == 0:
            row["selected"] = trial.selected
        out.append(row)
    return out


def _pool_rows(cfg_doc: dict, indices: Sequence[int], psi_ks: Sequence[int]) -> list[dict]:
    # a pool worker starts from the config alone and builds its own env
    config = ExperimentConfig.from_json_dict(cfg_doc)
    return _trial_rows(config, _build_env(config), indices, psi_ks)


# -- pipeline skeleton: prologue, per-block tally, epilogue ---------------------


def _prologue(config: ExperimentConfig, threads: int) -> _Env:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    env = _build_env(config)
    if config.tail_start >= env.partition.block_count:
        raise ValueError(f"tail_start {config.tail_start} must be below the {env.partition.block_count} blocks")
    return env


def _block_table(config: ExperimentConfig, env: _Env, rows: list[dict], cell) -> list[dict]:
    """One entry per block: its size, ell and mean selected count over the
    trials, and per s the cell that `cell(dependent_count, bound)` makes of
    the block's dependent count and the probability bound."""
    table = []
    for k, blk in enumerate(env.schedule.blocks):
        per_s = {}
        for s in config.s_values:
            dep = sum(row["dependent"][str(s)][k] for row in rows)
            bound = dependence_probability_bound(s, blk.ell, blk.size) if blk.size else 0.0
            per_s[str(s)] = cell(dep, bound)
        table.append(
            {
                "k": k,
                "size": blk.size,
                "ell": blk.ell,
                "mean_selected": sum(row["block_counts"][k] for row in rows) / config.trials,
                "independence": per_s,
            }
        )
    return table


def _epilogue(pipeline: str, config: ExperimentConfig, start: float, stages: dict, summary: dict) -> ExperimentRecord:
    return ExperimentRecord(
        pipeline=pipeline,
        config=config,
        config_hash=config.hash(),
        stages=stages,
        summary=summary,
        created_utc=_utc_now(),
        elapsed_seconds=round(time.monotonic() - start, 3),
    )


# -- block independence pipeline ----------------------------------------------


def run_block_independence(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Monte Carlo per-block s-independence frequencies against the
    probability bound, plus the law-of-large-numbers block-count check."""
    start = time.monotonic()
    env = _prologue(config, threads)
    rows = _fan_out(config, env, threads, psi_ks=())
    trials = config.trials

    def cell(dep: int, bound: float) -> dict:
        freq = dep / trials
        lo, hi = wilson_interval(dep, trials)
        return {
            "dependent_count": dep,
            "frequency": freq,
            "wilson_99": [lo, hi],
            "bound": bound,
            "below_bound_with_slack": freq <= bound + 3.0 * (hi - lo) / 2.0,
        }

    blocks_table = _block_table(config, env, rows, cell)
    for entry, blk in zip(blocks_table, env.schedule.blocks):
        se = math.sqrt(blk.size * float(blk.delta) * (1.0 - float(blk.delta)) / trials)
        entry["expected_selected"] = blk.ell
        entry["standard_error"] = se
        entry["within_3se"] = abs(entry["mean_selected"] - blk.ell) <= 3.0 * se + 1e-12

    tail = blocks_table[config.tail_start :]
    summary = {
        "tail_start": config.tail_start,
        "tail_blocks": [b["k"] for b in tail],
        "per_s": {
            str(s): {
                "max_tail_frequency": max(b["independence"][str(s)]["frequency"] for b in tail),
                "all_tail_below_bound_with_slack": all(
                    b["independence"][str(s)]["below_bound_with_slack"] for b in tail
                ),
            }
            for s in config.s_values
        },
        "lln_all_within_3se": all(b["within_3se"] for b in blocks_table if b["size"] > 0),
    }
    stages = {
        "decomposition": env.decomposition.to_json_dict(),
        "schedule": _schedule_stage(env),
        "blocks": blocks_table,
    }
    return _epilogue("block_independence", config, start, stages, summary)


# -- end-to-end certification pipeline ----------------------------------------


def _psi_ks(config: ExperimentConfig, size: int) -> list[int]:
    ks = sorted({max(1, math.ceil(f * size)) for f in config.psi_fractions})
    return [k for k in ks if k <= size]


def run_certification(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Growth gate, schedule diagnostics, per-block independence frequencies,
    selection discrepancy decay, and an equidistribution scan of one selected
    subset, in a single record."""
    start = time.monotonic()
    env = _prologue(config, threads)
    growth = classify_growth(env.source)
    if not growth.is_polynomial:
        raise GrowthGateError(growth)

    ks = _psi_ks(config, len(env.source))
    rows = _fan_out(config, env, threads, psi_ks=ks if config.compute_psi else ())
    trials = config.trials

    def cell(dep: int, bound: float) -> dict:
        lo, hi = wilson_interval(trials - dep, trials)
        return {
            "independent_frequency": 1.0 - dep / trials,
            "wilson_99": [lo, hi],
            "bound_on_dependence": bound,
        }

    blocks_table = _block_table(config, env, rows, cell)

    psi_stage: dict = {"checkpoints": ks, "per_trial": []}
    decay_fraction = None
    if config.compute_psi and len(ks) >= 2:
        decays = usable = 0
        for row in rows:
            psi_stage["per_trial"].append({"trial": row["trial"], "values": row["psi"]})
            lo_v, hi_v = row["psi"][str(ks[0])], row["psi"][str(ks[-1])]
            if lo_v is not None and hi_v is not None:
                usable += 1
                decays += hi_v < lo_v
        decay_fraction = decays / usable if usable else None
        psi_stage["decay_fraction"] = decay_fraction
        psi_stage["decay_usable_trials"] = usable
        if usable:
            psi_stage["decay_wilson_99"] = list(wilson_interval(decays, usable))

    scan_stage = None
    picked = rows[0]["selected"]
    if config.compute_scan and len(picked) >= 1:
        n_cps = config.scan_checkpoints
        cps = sorted({max(1, math.ceil(len(picked) * (i + 1) / n_cps)) for i in range(n_cps)})
        points = [CirclePoint.parse(p) for p in config.scan_points]
        scan_stage = equidistribution_scan(picked, cps, points).to_json_dict()

    tail = blocks_table[config.tail_start :]
    thr = {**DEFAULT_THRESHOLDS, **config.thresholds}
    per_s_summary = {}
    for s in config.s_values:
        freqs = [b["independence"][str(s)]["independent_frequency"] for b in tail]
        per_s_summary[str(s)] = {
            "min_tail_independent_frequency": min(freqs),
            "tail_meets_threshold": all(f >= thr["tail_independence"] for f in freqs),
        }
    summary = {
        "growth": growth.to_json_dict(),
        "tail_start": config.tail_start,
        "tail_blocks": [b["k"] for b in tail],
        "per_s": per_s_summary,
        "psi_decay_fraction": decay_fraction,
        "psi_decay_meets_threshold": (decay_fraction is not None and decay_fraction >= thr["psi_decay"])
        if config.compute_psi else None,
        "thresholds": config.thresholds,
    }
    stages = {
        "growth": growth.to_json_dict(),
        "block_growth": verify_block_growth(env.decomposition, config.tail_start).to_json_dict(),
        "decomposition": env.decomposition.to_json_dict(),
        "schedule": _schedule_stage(env),
        "blocks": blocks_table,
        "psi": psi_stage if config.compute_psi else None,
        "scan": scan_stage,
    }
    return _epilogue("certification", config, start, stages, summary)


# -- worker fan-out -----------------------------------------------------------


def _fan_out(config: ExperimentConfig, env: _Env, threads: int, psi_ks: Sequence[int]) -> list[dict]:
    """Run the trials in order on the caller's env, or split across a process
    pool whose workers build their own; results are folded in trial order so
    the record is identical either way."""
    indices = list(range(config.trials))
    threads = min(threads, len(indices), os.cpu_count() or 1)
    if threads <= 1:
        return _trial_rows(config, env, indices, psi_ks)
    chunks = [indices[i::threads] for i in range(threads)]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = list(pool.map(_pool_rows, [config.to_json_dict()] * threads, chunks, [psi_ks] * threads))
    merged = [row for part in parts for row in part]
    merged.sort(key=lambda row: row["trial"])
    return merged
