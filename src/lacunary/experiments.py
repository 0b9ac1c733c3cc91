"""Experiment pipelines: seeded end-to-end runs with persisted configs and
append-only JSON records.

The almost-sure statements behind these experiments are not finitely
checkable; every record therefore carries frequencies over seeds with Wilson
intervals, compared against thresholds declared in the config.

A pipeline is a per-block cell, a growth-gate flag and a tuple of stages
around one trial kernel. `_run` builds the env, runs the trials and tallies
each block into its cell; a stage is a function (config, env, trial rows,
block table) -> (stage documents, summary entries), and the record merges
what each stage returns in order.
"""

from __future__ import annotations

import datetime as _dt
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from itertools import accumulate, count, pairwise
from pathlib import Path
from typing import Sequence

from ._util import Doc, canonical_json, check_keys, decimal_strs, fields_json_dict, ln_int, wilson_interval
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
from .selection import (
    DensitySchedule, below_bound_with_slack, blockwise_schedule, factorial_block_schedule, select, trial_seed
)

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


# -- config rules: (what a value must be, test) ---------------------------------
# An integer is exactly an int and a number an int or a float: no bool passes
# for either, and every accepted value survives to_json_dict and hash().


def _is_point(v) -> bool:
    try:
        return type(v) is str and CirclePoint.parse(v) is not None
    except ValueError:
        return False


def _list_of(what: str, ok, nonempty: bool = False) -> tuple:
    # a tuple passes too: from_json_dict turns JSON arrays into tuples
    rule = f"a nonempty list of {what}" if nonempty else f"a list of {what}"
    return (rule, lambda v: type(v) in (list, tuple) and (bool(v) or not nonempty) and all(map(ok, v)))


_INT = ("an integer", lambda v: type(v) is int)
_INTS = _list_of("integers", _INT[1])
_BOOL = ("true or false", lambda v: type(v) is bool)
_STR = ("a string", lambda v: type(v) is str)
_OBJECT = ("an object", lambda v: type(v) is dict)


def _at_least(low: int) -> tuple:
    return (f"an integer >= {low}", lambda v: type(v) is int and v >= low)


def _check(key: str, value, rule: tuple) -> None:
    what, ok = rule
    if not ok(value):
        raise ValueError(f"config key {key!r} must be {what}, got {value!r}")


# -- builders: one table per config object, keyed by its "kind" ----------------


def _dyadic(spec: dict, source: IntegerSet) -> Partition:
    k_max = spec.get("k_max", "auto")
    if k_max != "auto":
        return dyadic_partition(k_max)
    k_max = max(1, (max(source.max_abs, 2) - 1).bit_length())
    try:
        return dyadic_partition(k_max)
    except ValueError as err:  # the only refusal: a cut too long to write
        raise ValueError(f'dyadic k_max "auto" is {k_max}, from the source\'s largest element; {err}') from None


def _linear_blocks(spec: dict, decomposition: BlockDecomposition) -> DensitySchedule:
    ells = [min(k, len(blk)) for k, blk in enumerate(decomposition.blocks)]
    return blockwise_schedule(decomposition, ells)


# kind -> ({required key: rule}, {optional key: rule}, builder). The builders
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
    requires, no key it does not take, and each value passes its rule."""
    kind = spec.get("kind")
    _check(f"{what}.kind", kind, (f"one of {', '.join(table)}", lambda v: type(v) is str and v in table))
    required, optional, build = table[kind]
    rules = {**required, **optional}
    check_keys(spec, required, {"kind", *rules}, f"{what}.", f" for {what} kind {kind!r}")
    for key, rule in rules.items():
        if key in spec:
            _check(f"{what}.{key}", spec[key], rule)
    return build


def build_source(spec: dict) -> IntegerSet:
    return _builder(_SOURCES, "source", spec)(spec)


def build_partition(spec: dict, source: IntegerSet) -> Partition:
    return _builder(_PARTITIONS, "partition", spec)(spec, source)


def build_schedule(spec: dict, decomposition: BlockDecomposition) -> DensitySchedule:
    return _builder(_SCHEDULES, "schedule", spec)(spec, decomposition)


def _field(rule: tuple, kinds: dict | None = None, **kwargs):
    # kinds: the builder table whose rules a spec object's own keys obey
    return field(metadata={"rule": rule, "kinds": kinds}, **kwargs)


@dataclass
class ExperimentConfig(Doc):
    """The experiment contract. Its fields are the only statement of the
    config schema: each declares its JSON key, its default and its rule, and
    __post_init__ applies every rule, so a config built in Python or loaded
    from JSON is refused with a ValueError naming the key it breaks."""

    source: dict = _field(_OBJECT, _SOURCES)
    partition: dict = _field(_OBJECT, _PARTITIONS)
    schedule: dict = _field(_OBJECT, _SCHEDULES)
    s_values: tuple[int, ...] = _field(
        _list_of(f"integers in 2..{DEFAULT_S_MAX}", lambda s: type(s) is int and 2 <= s <= DEFAULT_S_MAX, True),
        default=(2,),
    )
    trials: int = _field(_at_least(1), default=100)
    seed: int = _field(_INT, default=0)
    tail_start: int = _field(_at_least(0), default=1)
    grid_cap: int = _field(_at_least(1), default=DEFAULT_GRID_CAP)
    psi_fractions: tuple[float, ...] = _field(
        _list_of("numbers in (0, 1]", lambda f: type(f) in (int, float) and 0 < f <= 1), default=(0.25, 1.0)
    )
    scan_points: tuple[str, ...] = _field(
        _list_of('"a/q" or finite decimal turns', _is_point), default=DEFAULT_SCAN_POINTS
    )
    scan_checkpoints: int = _field(_at_least(1), default=4)
    thresholds: dict = _field(
        (f"an object mapping {' or '.join(DEFAULT_THRESHOLDS)} to [0, 1]",
         lambda v: type(v) is dict and set(v) <= set(DEFAULT_THRESHOLDS)
         and all(type(x) in (int, float) and 0 <= x <= 1 for x in v.values())),
        default_factory=lambda: dict(DEFAULT_THRESHOLDS),
    )
    compute_psi: bool = _field(_BOOL, default=True)
    compute_scan: bool = _field(_BOOL, default=True)
    out_dir: str = _field(_STR, default="")
    label: str = _field(_STR, default="")
    schema: int = _field(("1", lambda v: type(v) is int and v == 1), default=1)

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            _check(f.name, value, f.metadata["rule"])
            if type(value) is int:  # an integer too long to write would fail hash() after every trial
                decimal_strs([value], f"config key {f.name!r}")
            if f.metadata["kinds"]:
                _builder(f.metadata["kinds"], f.name, value)

    to_json_dict = fields_json_dict

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
        check_keys(doc, required, [f.name for f in fields(cls)], context=" in config")
        return cls(**{key: tuple(v) if type(v) is list else v for key, v in doc.items()})

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json_dict()).encode()).hexdigest()


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
    to_json_dict = fields_json_dict

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
    for counter in count():
        path = records_dir / (f"{base}-{counter}.json" if counter else f"{base}.json")
        try:
            with open(path, "x") as f:  # fails, rather than overwrite, on a file another run made
                f.write(record.to_json())
        except FileExistsError:
            continue
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
    """Each trial of both pipelines: select, cut the selection at its block
    counts, test every block for s-independence and take psi at psi_ks. Trial
    0's row also carries its selected set, which the certification scan reads."""
    out = []
    for t in indices:
        trial = select(env.source, env.schedule, trial_seed(config.seed, t))
        picked, spans = trial.selected, pairwise(accumulate(trial.block_counts, initial=0))
        blocks = [picked._part(picked.elements[lo:hi], f"{picked.label}|block{k}") for k, (lo, hi) in enumerate(spans)]
        row: dict = {
            "trial": t,
            "block_counts": list(trial.block_counts),
            "dependent": {
                str(s): [
                    0 if is_s_independent(blk, s).independent else 1 for blk in blocks
                ]
                for s in config.s_values
            },
        }
        if psi_ks:
            points = {}
            for k in psi_ks:
                try:
                    points[str(k)] = psi(env.source, trial, env.schedule, k, config.grid_cap)
                except ValueError:
                    points[str(k)] = None
            row["psi"] = points
        if t == 0:
            row["selected"] = trial.selected
        out.append(row)
    return out


# -- pipeline runner ----------------------------------------------------------


def _run(pipeline: str, cell, gated: bool, stages: tuple, config: ExperimentConfig, threads: int) -> ExperimentRecord:
    """Build the env, take the growth gate if `gated`, run the trials, tally
    each block's dependent count into `cell(dependent_count, bound, trials)`,
    then let each stage add its documents and summary entries in turn."""
    start = time.monotonic()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    env = _build_env(config)
    if config.tail_start >= env.partition.block_count:
        raise ValueError(f"tail_start {config.tail_start} must be below the {env.partition.block_count} blocks")
    if not any(env.decomposition.blocks[config.tail_start :]):  # an all-empty tail would pass vacuously
        last = env.partition.block_count - 1
        raise ValueError(f"tail blocks {config.tail_start}..{last} hold no element of {env.source.label!r}")
    docs, summary = {}, {}
    if gated:
        growth = classify_growth(env.source)
        if not growth.is_polynomial:
            raise GrowthGateError(growth)
        docs["growth"] = summary["growth"] = growth.to_json_dict()
    # before any trial: a schedule whose digest cannot be written fails here
    docs.update(decomposition=env.decomposition.to_json_dict(), schedule=_schedule_stage(env))
    psi_ks = _psi_ks(config, len(env.source)) if config.compute_psi and _psi_stage in stages else ()
    rows = _fan_out(config, env, threads, psi_ks)

    # one entry per block: its size, ell and mean selected count over the
    # trials, and per s the cell made of its dependent count and the bound
    table = []
    for k, blk in enumerate(env.schedule.blocks):
        per_s = {}
        for s in config.s_values:
            dep = sum(row["dependent"][str(s)][k] for row in rows)
            bound = dependence_probability_bound(s, blk.ell, blk.size) if blk.size else 0.0
            per_s[str(s)] = cell(dep, bound, config.trials)
        mean = sum(row["block_counts"][k] for row in rows) / config.trials
        table.append({"k": k, "size": blk.size, "ell": blk.ell, "mean_selected": mean, "independence": per_s})
    docs["blocks"] = table
    summary.update(tail_start=config.tail_start, tail_blocks=[b["k"] for b in table[config.tail_start :]])
    for stage in stages:
        more_docs, more_summary = stage(config, env, rows, table)
        docs.update(more_docs)
        summary.update(more_summary)
    elapsed = round(time.monotonic() - start, 3)
    return ExperimentRecord(pipeline, config, config.hash(), docs, summary, _utc_now(), elapsed)


# -- block independence pipeline ----------------------------------------------


def _dependence_cell(dep: int, bound: float, trials: int) -> dict:
    freq = dep / trials
    lo, hi = wilson_interval(dep, trials)
    return {
        "dependent_count": dep,
        "frequency": freq,
        "wilson_99": [lo, hi],
        "bound": bound,
        "below_bound_with_slack": below_bound_with_slack(freq, bound, lo, hi),
    }


def _tail_bound_stage(config: ExperimentConfig, env: _Env, rows: list[dict], table: list[dict]) -> tuple[dict, dict]:
    tail = table[config.tail_start :]
    per_s = {
        str(s): {
            "max_tail_frequency": max(b["independence"][str(s)]["frequency"] for b in tail),
            "all_tail_below_bound_with_slack": all(b["independence"][str(s)]["below_bound_with_slack"] for b in tail),
        }
        for s in config.s_values
    }
    return {}, {"per_s": per_s}


def _lln_stage(config: ExperimentConfig, env: _Env, rows: list[dict], table: list[dict]) -> tuple[dict, dict]:
    """Each block's mean selected count against its ell, within three
    standard errors of the binomial count; adds the columns to the table."""
    for entry, blk in zip(table, env.schedule.blocks):
        se = math.sqrt(blk.size * float(blk.delta) * (1.0 - float(blk.delta)) / config.trials)
        entry["expected_selected"] = blk.ell
        entry["standard_error"] = se
        entry["within_3se"] = abs(entry["mean_selected"] - blk.ell) <= 3.0 * se + 1e-12
    return {}, {"lln_all_within_3se": all(b["within_3se"] for b in table if b["size"] > 0)}


def run_block_independence(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Monte Carlo per-block s-independence frequencies against the
    probability bound, plus the law-of-large-numbers block-count check."""
    return _run("block_independence", _dependence_cell, False, (_tail_bound_stage, _lln_stage), config, threads)


# -- end-to-end certification pipeline ----------------------------------------


def _independence_cell(dep: int, bound: float, trials: int) -> dict:
    lo, hi = wilson_interval(trials - dep, trials)
    return {"independent_frequency": 1.0 - dep / trials, "wilson_99": [lo, hi], "bound_on_dependence": bound}


def _threshold_stage(config: ExperimentConfig, env: _Env, rows: list[dict], table: list[dict]) -> tuple[dict, dict]:
    """Block growth over the tail, and each tail block's independent
    frequency against the tail_independence threshold."""
    threshold = config.thresholds.get("tail_independence", DEFAULT_THRESHOLDS["tail_independence"])
    per_s = {}
    for s in config.s_values:
        freqs = [b["independence"][str(s)]["independent_frequency"] for b in table[config.tail_start :]]
        per_s[str(s)] = {
            "min_tail_independent_frequency": min(freqs),
            "tail_meets_threshold": all(f >= threshold for f in freqs),
        }
    docs = {"block_growth": verify_block_growth(env.decomposition, config.tail_start).to_json_dict()}
    return docs, {"per_s": per_s, "thresholds": config.thresholds}


def _psi_ks(config: ExperimentConfig, size: int) -> list[int]:
    # the fraction as written: 0.55 * 100 is 55.00000000000001 in floats
    ks = sorted({max(1, math.ceil(Fraction(str(f)) * size)) for f in config.psi_fractions})
    return [k for k in ks if k <= size]


def _psi_stage(config: ExperimentConfig, env: _Env, rows: list[dict], table: list[dict]) -> tuple[dict, dict]:
    """Every trial's psi at each checkpoint, and how often psi falls from the
    first checkpoint to the last. Below two checkpoints there is no decay to
    judge, so the verdict is None, as it is when psi is not computed."""
    no_verdict = {"psi_decay_fraction": None, "psi_decay_meets_threshold": None}
    if not config.compute_psi:
        return {"psi": None}, no_verdict
    ks = _psi_ks(config, len(env.source))
    doc: dict = {"checkpoints": ks, "per_trial": []}
    if not ks:
        return {"psi": doc}, no_verdict
    decays = usable = certified_pairs = 0
    for row in rows:
        points = row["psi"]
        entry = {"trial": row["trial"]}
        for key, attr in (("values", "value"), ("grid_sizes", "grid_size"), ("certified", "certified")):
            entry[key] = {k: None if p is None else getattr(p, attr) for k, p in points.items()}
        doc["per_trial"].append(entry)
        lo_p, hi_p = points[str(ks[0])], points[str(ks[-1])]
        if lo_p is not None and hi_p is not None:
            usable += 1
            decays += hi_p.value < lo_p.value
            certified_pairs += lo_p.certified and hi_p.certified
    doc["uncertified_values"] = sum(p is not None and not p.certified for row in rows for p in row["psi"].values())
    if len(ks) < 2:
        return {"psi": doc}, no_verdict
    decay_fraction = decays / usable if usable else None
    doc.update(decay_fraction=decay_fraction, decay_usable_trials=usable, decay_certified_trials=certified_pairs)
    if usable:
        doc["decay_wilson_99"] = list(wilson_interval(decays, usable))
    threshold = config.thresholds.get("psi_decay", DEFAULT_THRESHOLDS["psi_decay"])
    meets = decay_fraction is not None and decay_fraction >= threshold
    return {"psi": doc}, {"psi_decay_fraction": decay_fraction, "psi_decay_meets_threshold": meets}


def _scan_stage(config: ExperimentConfig, env: _Env, rows: list[dict], table: list[dict]) -> tuple[dict, dict]:
    """Weyl means of trial 0's selected set at scan_checkpoints prefixes."""
    picked = rows[0]["selected"]
    if not (config.compute_scan and len(picked) >= 1):
        return {"scan": None}, {}
    n_cps = config.scan_checkpoints
    cps = sorted({max(1, math.ceil(len(picked) * (i + 1) / n_cps)) for i in range(n_cps)})
    points = [CirclePoint.parse(p) for p in config.scan_points]
    return {"scan": equidistribution_scan(picked, cps, points).to_json_dict()}, {}


def run_certification(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Growth gate, schedule diagnostics, per-block independence frequencies,
    selection discrepancy decay, and an equidistribution scan of one selected
    subset, in a single record."""
    return _run("certification", _independence_cell, True, (_threshold_stage, _psi_stage, _scan_stage), config, threads)


# -- worker fan-out -----------------------------------------------------------


def _fan_out(config: ExperimentConfig, env: _Env, threads: int, psi_ks: Sequence[int]) -> list[dict]:
    """Run the trials in order on the caller's env, or split them into one
    contiguous range per worker of a process pool that is sent the config and
    that env; the ranges come back in order, so the record is identical either way."""
    trials = config.trials
    threads = min(threads, trials, os.cpu_count() or 1)
    if threads <= 1:
        return _trial_rows(config, env, range(trials), psi_ks)
    ranges = [range(lo, hi) for lo, hi in pairwise(trials * i // threads for i in range(threads + 1))]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        parts = pool.map(_trial_rows, [config] * threads, [env] * threads, ranges, [psi_ks] * threads)
        return [row for part in parts for row in part]
