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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ._util import Z_99, canonical_json, ln_int, wilson_interval
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
from .relations import dependence_probability_bound, is_s_independent
from .selection import (
    DensitySchedule,
    blockwise_schedule,
    decreasing_density_schedule,
    factorial_block_schedule,
    select,
    trial_seed,
    uniform_schedule,
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


@dataclass
class ExperimentConfig:
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
    thresholds: dict = field(
        default_factory=lambda: {"tail_independence": 0.95, "psi_decay": 0.90}
    )
    compute_psi: bool = True
    compute_scan: bool = True
    out_dir: str = ""
    label: str = ""
    schema: int = 1

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    def to_json_dict(self) -> dict:
        return {
            "schema": self.schema,
            "label": self.label,
            "out_dir": self.out_dir,
            "source": self.source,
            "partition": self.partition,
            "schedule": self.schedule,
            "s_values": list(self.s_values),
            "trials": self.trials,
            "seed": self.seed,
            "tail_start": self.tail_start,
            "grid_cap": self.grid_cap,
            "psi_fractions": list(self.psi_fractions),
            "scan_points": list(self.scan_points),
            "scan_checkpoints": self.scan_checkpoints,
            "thresholds": self.thresholds,
            "compute_psi": self.compute_psi,
            "compute_scan": self.compute_scan,
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ExperimentConfig":
        if doc.get("schema", 1) != 1:
            raise ValueError(f"unsupported config schema {doc.get('schema')!r}")
        missing = [key for key in ("source", "partition", "schedule") if key not in doc]
        if missing:
            raise ValueError(f"config lacks {', '.join(missing)}")
        return cls(
            source=doc["source"],
            partition=doc["partition"],
            schedule=doc["schedule"],
            s_values=tuple(doc.get("s_values", [2])),
            trials=int(doc.get("trials", 100)),
            seed=int(doc.get("seed", 0)),
            tail_start=int(doc.get("tail_start", 1)),
            grid_cap=int(doc.get("grid_cap", DEFAULT_GRID_CAP)),
            psi_fractions=tuple(doc.get("psi_fractions", [0.25, 1.0])),
            scan_points=tuple(doc.get("scan_points", DEFAULT_SCAN_POINTS)),
            scan_checkpoints=int(doc.get("scan_checkpoints", 4)),
            thresholds=dict(doc.get("thresholds", {"tail_independence": 0.95, "psi_decay": 0.90})),
            compute_psi=bool(doc.get("compute_psi", True)),
            compute_scan=bool(doc.get("compute_scan", True)),
            out_dir=doc.get("out_dir", ""),
            label=doc.get("label", ""),
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        return cls.from_json_dict(json.loads(text))

    def hash(self) -> str:
        return hashlib.sha256(canonical_json(self.to_json_dict()).encode()).hexdigest()


def build_source(spec: dict) -> IntegerSet:
    kind = spec.get("kind")
    if kind == "primes":
        return generate_primes(int(spec["limit"]))
    if kind == "polynomial":
        return generate_polynomial([int(c) for c in spec["coefficients"]], int(spec["k_max"]))
    if kind == "geometric":
        return generate_geometric(int(spec["base"]), int(spec["k_max"]))
    if kind == "integers":
        return generate_integers(int(spec["n_max"]))
    raise ValueError(f"unknown source kind {kind!r}")


def build_partition(spec: dict, source: IntegerSet) -> Partition:
    kind = spec.get("kind")
    if kind == "dyadic":
        k_max = spec.get("k_max", "auto")
        if k_max == "auto":
            k_max = max(1, (max(source.max_abs, 2) - 1).bit_length())
        return dyadic_partition(int(k_max))
    if kind == "gross":
        # four blocks by default: enough to show the factorial cuts at work
        return gross_partition(int(spec.get("k_max", 4)), spec.get("exponents"))
    if kind == "custom":
        return Partition(tuple(int(p) for p in spec["cut_points"]), "custom")
    raise ValueError(f"unknown partition kind {kind!r}")


def build_schedule(spec: dict, decomposition: BlockDecomposition) -> DensitySchedule:
    kind = spec.get("kind")
    if kind == "linear_blocks":
        ells = [min(k, len(blk)) for k, blk in enumerate(decomposition.blocks)]
        return blockwise_schedule(decomposition, ells)
    if kind == "blockwise":
        return blockwise_schedule(decomposition, [int(x) for x in spec["ells"]])
    if kind == "factorial_cap":
        return factorial_block_schedule(decomposition)
    if kind == "power_law":
        return decreasing_density_schedule(
            decomposition.source, form="power_law", alpha=float(spec.get("alpha", 1.0))
        )
    if kind == "uniform":
        return uniform_schedule(decomposition.source, spec["delta"])
    raise ValueError(f"unknown schedule kind {kind!r}")


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
        return {
            "schema": self.schema,
            "pipeline": self.pipeline,
            "tool_version": self.tool_version,
            "config": self.config.to_json_dict(),
            "config_hash": self.config_hash,
            "stages": self.stages,
            "summary": self.summary,
            "created_utc": self.created_utc,
            "elapsed_seconds": self.elapsed_seconds,
        }

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
    doc = env.schedule.to_json_dict(include_entries=False)
    # sum of ells below each block against the log of its upper cut: inside
    # block k every |n| is at most p_k while sigma has already absorbed the
    # full lower blocks, so this ratio is the finite surrogate for sigma
    # outgrowing log|n|
    if env.schedule.blocks is not None:
        cuts = env.partition.cut_points
        ratios = []
        running = 0
        for blk in env.schedule.blocks:
            if blk.k >= 1:
                log_cut = ln_int(cuts[blk.k]) if cuts[blk.k] > 1 else None
                ratios.append(
                    {
                        "k": blk.k,
                        "ell_sum_below": running,
                        "log_upper_cut": log_cut,
                        "ratio": (running / log_cut) if log_cut else None,
                    }
                )
            running += blk.ell
        doc["sigma_vs_log_cut"] = ratios
    return doc


def _tail_blocks(env: _Env, tail_start: int) -> list[int]:
    return [k for k in range(tail_start, env.partition.block_count)]


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


# -- block independence pipeline ----------------------------------------------


def run_block_independence(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Monte Carlo per-block s-independence frequencies against the
    probability bound, plus the law-of-large-numbers block-count check."""
    _check_threads(threads)
    start = time.monotonic()
    env = _build_env(config)
    if env.schedule.blocks is None:
        raise ValueError("block independence pipeline needs a blockwise schedule")
    rows = _fan_out(config, env, threads, psi_ks=())

    n_blocks = env.partition.block_count
    trials = config.trials
    blocks_table = []
    for k in range(n_blocks):
        blk = env.schedule.blocks[k]
        entry: dict = {"k": k, "size": blk.size, "ell": blk.ell}
        counts = [row["block_counts"][k] for row in rows]
        mean = sum(counts) / trials
        var = blk.size * float(blk.delta) * (1.0 - float(blk.delta))
        se = math.sqrt(var / trials)
        entry["mean_selected"] = mean
        entry["expected_selected"] = blk.ell
        entry["standard_error"] = se
        entry["within_3se"] = abs(mean - blk.ell) <= 3.0 * se + 1e-12
        per_s = {}
        for s in config.s_values:
            dep = sum(row["dependent"][str(s)][k] for row in rows)
            freq = dep / trials
            lo, hi = wilson_interval(dep, trials, Z_99)
            bound = dependence_probability_bound(s, blk.ell, blk.size) if blk.size else 0.0
            per_s[str(s)] = {
                "dependent_count": dep,
                "frequency": freq,
                "wilson_99": [lo, hi],
                "bound": bound,
                "below_bound_with_slack": freq <= bound + 3.0 * (hi - lo) / 2.0,
            }
        entry["independence"] = per_s
        blocks_table.append(entry)

    tail = _tail_blocks(env, config.tail_start)
    summary = {
        "tail_start": config.tail_start,
        "tail_blocks": tail,
        "per_s": {
            str(s): {
                "max_tail_frequency": max(
                    (blocks_table[k]["independence"][str(s)]["frequency"] for k in tail),
                    default=0.0,
                ),
                "all_tail_below_bound_with_slack": all(
                    blocks_table[k]["independence"][str(s)]["below_bound_with_slack"] for k in tail
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
    return ExperimentRecord(
        pipeline="block_independence",
        config=config,
        config_hash=config.hash(),
        stages=stages,
        summary=summary,
        created_utc=_utc_now(),
        elapsed_seconds=round(time.monotonic() - start, 3),
    )


# -- end-to-end certification pipeline ----------------------------------------


def _psi_ks(config: ExperimentConfig, size: int) -> list[int]:
    ks = sorted({max(1, math.ceil(f * size)) for f in config.psi_fractions})
    return [k for k in ks if k <= size]


def run_certification(config: ExperimentConfig, threads: int = 1) -> ExperimentRecord:
    """Growth gate, schedule diagnostics, per-block independence frequencies,
    selection discrepancy decay, and an equidistribution scan of one selected
    subset, in a single record."""
    _check_threads(threads)
    start = time.monotonic()
    env = _build_env(config)
    growth = classify_growth(env.source)
    if not growth.is_polynomial:
        raise GrowthGateError(growth)
    if env.schedule.blocks is None:
        raise ValueError("certification pipeline needs a blockwise schedule")

    ks = _psi_ks(config, len(env.source))
    rows = _fan_out(config, env, threads, psi_ks=ks if config.compute_psi else ())
    trials = config.trials

    blocks_table = []
    for k in range(env.partition.block_count):
        blk = env.schedule.blocks[k]
        per_s = {}
        for s in config.s_values:
            dep = sum(row["dependent"][str(s)][k] for row in rows)
            freq_independent = 1.0 - dep / trials
            lo, hi = wilson_interval(trials - dep, trials, Z_99)
            per_s[str(s)] = {
                "independent_frequency": freq_independent,
                "wilson_99": [lo, hi],
                "bound_on_dependence": dependence_probability_bound(s, blk.ell, blk.size)
                if blk.size
                else 0.0,
            }
        blocks_table.append(
            {
                "k": k,
                "size": blk.size,
                "ell": blk.ell,
                "mean_selected": sum(row["block_counts"][k] for row in rows) / trials,
                "independence": per_s,
            }
        )

    psi_stage: dict = {"checkpoints": ks, "per_trial": []}
    decay_fraction = None
    if config.compute_psi and len(ks) >= 2:
        k_lo, k_hi = ks[0], ks[-1]
        decays = 0
        usable = 0
        for row in rows:
            lo_v = row["psi"][str(k_lo)]
            hi_v = row["psi"][str(k_hi)]
            psi_stage["per_trial"].append({"trial": row["trial"], "values": row["psi"]})
            if lo_v is not None and hi_v is not None:
                usable += 1
                if hi_v < lo_v:
                    decays += 1
        decay_fraction = decays / usable if usable else None
        psi_stage["decay_fraction"] = decay_fraction
        psi_stage["decay_usable_trials"] = usable
        if usable:
            w_lo, w_hi = wilson_interval(decays, usable, Z_99)
            psi_stage["decay_wilson_99"] = [w_lo, w_hi]

    scan_stage = None
    if config.compute_scan:
        picked = rows[0]["selected"]
        if len(picked) >= 1:
            m = len(picked)
            cps = sorted({max(1, math.ceil(m * (i + 1) / config.scan_checkpoints)) for i in range(config.scan_checkpoints)})
            points = [CirclePoint.parse(p) for p in config.scan_points]
            scan_stage = equidistribution_scan(picked, cps, points).to_json_dict()

    tail = _tail_blocks(env, config.tail_start)
    thr = config.thresholds
    per_s_summary = {}
    for s in config.s_values:
        freqs = [blocks_table[k]["independence"][str(s)]["independent_frequency"] for k in tail]
        per_s_summary[str(s)] = {
            "min_tail_independent_frequency": min(freqs) if freqs else None,
            "tail_meets_threshold": all(f >= thr.get("tail_independence", 0.95) for f in freqs),
        }
    summary = {
        "growth": growth.to_json_dict(),
        "tail_start": config.tail_start,
        "tail_blocks": tail,
        "per_s": per_s_summary,
        "psi_decay_fraction": decay_fraction,
        "psi_decay_meets_threshold": (
            decay_fraction is not None and decay_fraction >= thr.get("psi_decay", 0.90)
        )
        if config.compute_psi
        else None,
        "thresholds": thr,
    }
    stages = {
        "growth": growth.to_json_dict(),
        "block_growth": verify_block_growth(env.decomposition, min(config.tail_start, env.partition.block_count - 1)).to_json_dict(),
        "decomposition": env.decomposition.to_json_dict(),
        "schedule": _schedule_stage(env),
        "blocks": blocks_table,
        "psi": psi_stage if config.compute_psi else None,
        "scan": scan_stage,
    }
    return ExperimentRecord(
        pipeline="certification",
        config=config,
        config_hash=config.hash(),
        stages=stages,
        summary=summary,
        created_utc=_utc_now(),
        elapsed_seconds=round(time.monotonic() - start, 3),
    )


# -- worker fan-out -----------------------------------------------------------


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


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
