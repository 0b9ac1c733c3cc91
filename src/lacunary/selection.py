"""Random selector machinery: density schedules, reproducible counter-based
selection, and Monte Carlo validation of the dependence probability bound.

Selection of element i under seed s is a pure function of (s, i): a
splitmix-style mixer turns the pair into a uniform 64-bit word, compared
against the exact rational density threshold. No generator state exists, so
results are independent of evaluation order and thread count.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, groupby
from typing import Sequence

import numpy as np

from ._util import ln_int, wilson_interval
from .integer_sets import IntegerSet
from .partitions import BlockDecomposition
from .relations import dependence_probability_bound, is_s_independent

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TRIAL_DOMAIN = 0xA0761D6478BD642F


def mix64(seed: int, index: int) -> int:
    """Deterministic 64-bit word for (seed, counter index)."""
    z = (seed + _GOLDEN * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def _mix64_block(seed: int, count: int) -> np.ndarray:
    """Vectorized mix64 over indices 0..count-1; bit-identical to the scalar."""
    idx = np.arange(1, count + 1, dtype=np.uint64)
    z = (np.uint64(seed & _MASK64) + np.uint64(_GOLDEN) * idx).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def trial_seed(seed: int, trial_index: int) -> int:
    """Per-trial seed, decorrelated from the per-element counter stream."""
    return (seed ^ mix64(_TRIAL_DOMAIN, trial_index)) & _MASK64


def _as_density(value) -> Fraction:
    d = Fraction(value)
    if not 0 <= d <= 1:
        raise ValueError(f"density {value} outside [0, 1]")
    return d


@dataclass(frozen=True)
class BlockDensity:
    """Constant-density span of a schedule: block k holds `size` elements
    starting at `start`, each kept with probability ell/size."""

    k: int
    ell: int
    size: int
    delta: Fraction
    start: int


@dataclass(frozen=True)
class DensitySchedule:
    elements: tuple[int, ...]
    densities: tuple[Fraction, ...]
    blocks: tuple[BlockDensity, ...] | None = None
    kind: str = "custom"
    diagnostics: dict | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.elements) != len(self.densities):
            raise ValueError("schedule entries must align one density per element")
        # schedules are long but carry few distinct densities; validate each
        # distinct value once
        cache: dict[int, Fraction] = {}
        dens = []
        for d in self.densities:
            key = id(d)
            got = cache.get(key)
            if got is None:
                got = _as_density(d)
                cache[key] = got
            dens.append(got)
        object.__setattr__(self, "densities", tuple(dens))

    def __len__(self) -> int:
        return len(self.elements)

    def sigma_at(self, k: int) -> Fraction:
        """Exact partial sum of the first k densities."""
        if not 0 <= k <= len(self.elements):
            raise ValueError("sigma index out of range")
        if self.blocks is not None:
            total = Fraction(0)
            for blk in self.blocks:
                stop = blk.start + blk.size
                if k >= stop:
                    total += Fraction(blk.ell)
                elif k > blk.start:
                    total += (k - blk.start) * blk.delta
                else:
                    break
            return total
        return sum(self.densities[:k], Fraction(0))

    def density_floats(self) -> np.ndarray:
        """float(delta_j) for every element, converting each run of one shared
        density object once: blockwise schedules repeat a single Fraction per
        block."""
        values, counts = [], []
        for _, run in groupby(self.densities, key=id):
            run = tuple(run)
            values.append(float(run[0]))
            counts.append(len(run))
        return np.repeat(np.array(values, dtype=np.float64), counts)

    def sigma_float(self) -> np.ndarray:
        """Approximate partial sums sigma_1..sigma_K for diagnostics."""
        return np.cumsum(self.density_floats())

    def aligned_with(self, E: IntegerSet) -> bool:
        return self.elements == E.elements

    def to_json_dict(self) -> dict:
        """Blocks and per-block sigma for a blockwise schedule, else every
        (element, density) entry and the running sigma."""
        sig = self.sigma_float()
        doc: dict = {
            "schema": 1,
            "kind": self.kind,
            "size": len(self.elements),
            "elements_sha256": _digest(self.elements),
        }
        if self.blocks is not None:
            doc["blocks"] = [
                {
                    "k": b.k,
                    "ell": b.ell,
                    "size": b.size,
                    "delta": f"{b.delta.numerator}/{b.delta.denominator}",
                    "start": b.start,
                }
                for b in self.blocks
            ]
            doc["sigma"] = [float(sig[b.start + b.size - 1]) for b in self.blocks if b.size > 0]
        else:
            doc["sigma"] = [float(x) for x in sig]
            doc["entries"] = [
                [str(n), f"{d.numerator}/{d.denominator}"]
                for n, d in zip(self.elements, self.densities)
            ]
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict, E: IntegerSet | None = None) -> "DensitySchedule":
        if "entries" in doc:
            elements = tuple(int(n) for n, _ in doc["entries"])
            densities = tuple(Fraction(d) for _, d in doc["entries"])
        else:
            if E is None:
                raise ValueError("block-form schedule JSON needs the source set to realign")
            if _digest(E.elements) != doc["elements_sha256"]:
                raise ValueError("schedule does not match this set (digest mismatch)")
            elements = E.elements
            densities_list: list[Fraction] = []
            for b in sorted(doc["blocks"], key=lambda b: b["start"]):
                densities_list.extend([Fraction(b["delta"])] * b["size"])
            densities_list.extend([Fraction(0)] * (len(elements) - len(densities_list)))
            densities = tuple(densities_list)
        blocks = None
        if "blocks" in doc:
            blocks = tuple(
                BlockDensity(b["k"], b["ell"], b["size"], Fraction(b["delta"]), b["start"])
                for b in doc["blocks"]
            )
        sched = cls(elements, densities, blocks=blocks, kind=doc.get("kind", "custom"))
        if E is not None and not sched.aligned_with(E):
            raise ValueError("schedule misaligned with set")
        return sched


def _digest(elements: Sequence[int]) -> str:
    h = hashlib.sha256()
    for n in elements:
        h.update(str(n).encode())
        h.update(b"\n")
    return h.hexdigest()


def uniform_schedule(E: IntegerSet, delta) -> DensitySchedule:
    d = _as_density(delta)
    return DensitySchedule(E.elements, (d,) * len(E), kind="uniform")


@dataclass(frozen=True)
class SelectionTrial:
    seed: int
    selected: IntegerSet
    block_counts: tuple[int, ...] | None = None
    source_size: int = 0
    source_label: str = ""

    def to_json_dict(self) -> dict:
        doc: dict = {
            "schema": 1,
            "seed": self.seed,
            "source_label": self.source_label,
            "source_size": self.source_size,
            "selected": [str(n) for n in self.selected.elements],
        }
        if self.block_counts is not None:
            doc["block_counts"] = list(self.block_counts)
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict, E: IntegerSet | None = None) -> "SelectionTrial":
        if doc.get("format") == "bitmap":
            return cls.from_bitmap_json_dict(doc, E)
        return cls(
            seed=doc["seed"],
            selected=IntegerSet.from_iterable((int(s) for s in doc["selected"]), "selected"),
            block_counts=tuple(doc["block_counts"]) if "block_counts" in doc else None,
            source_size=doc.get("source_size", 0),
            source_label=doc.get("source_label", ""),
        )

    def to_bitmap_json_dict(self, E: IntegerSet) -> dict:
        """Compact form: one bit per source element, plus the source digest."""
        flags = np.fromiter(map(self.selected.members.__contains__, E.elements), dtype=bool, count=len(E))
        return {
            "schema": 1,
            "format": "bitmap",
            "seed": self.seed,
            "source_label": E.label,
            "source_size": len(E),
            "elements_sha256": _digest(E.elements),
            "bits_hex": np.packbits(flags, bitorder="little").tobytes().hex(),
        }

    @classmethod
    def from_bitmap_json_dict(cls, doc: dict, E: IntegerSet | None) -> "SelectionTrial":
        if E is None:
            raise ValueError("bitmap trial JSON needs the source set to decode")
        if _digest(E.elements) != doc["elements_sha256"]:
            raise ValueError("trial does not match this set (digest mismatch)")
        buf = np.frombuffer(bytes.fromhex(doc["bits_hex"]), dtype=np.uint8)
        if len(buf) != (len(E) + 7) // 8:
            raise ValueError(f"bitmap holds {len(buf)} bytes, the set needs {(len(E) + 7) // 8}")
        picked = tuple(compress(E.elements, np.unpackbits(buf, count=len(E), bitorder="little").tolist()))
        return cls(
            seed=doc["seed"],
            selected=IntegerSet(picked, f"{E.label}|seed{doc['seed']}"),
            source_size=doc["source_size"],
            source_label=doc.get("source_label", ""),
        )


def _thresholds(densities: Sequence[Fraction]) -> list[int]:
    # v < ceil(num * 2^64 / den) is exactly v * den < num * 2^64
    cache: dict[Fraction, int] = {}
    out = []
    for d in densities:
        t = cache.get(d)
        if t is None:
            t = -(-(d.numerator << 64) // d.denominator)
            cache[d] = t
        out.append(t)
    return out


def select(E: IntegerSet, schedule: DensitySchedule, seed: int) -> SelectionTrial:
    """Keep each element independently with its scheduled probability.

    Identical (seed, schedule, set) always reproduce the same subset.
    """
    if not schedule.aligned_with(E):
        raise ValueError("schedule misaligned with set")
    thresholds = _thresholds(schedule.densities)
    words = _mix64_block(seed, len(E))
    # exact compare v < t as v <= t-1 so the t = 2^64 (density 1) case still
    # fits in uint64; t = 0 (density 0) is masked out separately
    thr_u = np.array([(t - 1) & _MASK64 for t in thresholds], dtype=np.uint64)
    nonzero = np.array([t > 0 for t in thresholds], dtype=bool)
    picked_idx = np.nonzero(nonzero & (words <= thr_u))[0]
    selected = IntegerSet(tuple(E.elements[int(i)] for i in picked_idx), f"{E.label}|seed{seed}")
    block_counts = None
    if schedule.blocks is not None:
        block_counts = tuple(
            int(np.count_nonzero((picked_idx >= b.start) & (picked_idx < b.start + b.size)))
            for b in schedule.blocks
        )
    return SelectionTrial(
        seed=seed,
        selected=selected,
        block_counts=block_counts,
        source_size=len(E),
        source_label=E.label,
    )


def blockwise_schedule(D: BlockDecomposition, ells: Sequence[int]) -> DensitySchedule:
    """Constant density ell_k / |E_k| on each block of a decomposition.

    Elements beyond the last cut point (the remainder) get density 0 so the
    schedule stays aligned with the full source set.
    """
    if len(ells) != len(D.blocks):
        raise ValueError(f"need one ell per block ({len(D.blocks)}), got {len(ells)}")
    densities: list[Fraction] = []
    blocks: list[BlockDensity] = []
    start = 0
    for k, (blk, ell) in enumerate(zip(D.blocks, ells)):
        ell = int(ell)
        if ell < 0 or ell > len(blk):
            raise ValueError(f"block {k}: ell={ell} outside [0, |E_k|={len(blk)}]")
        delta = Fraction(ell, len(blk)) if len(blk) else Fraction(0)
        densities.extend([delta] * len(blk))
        blocks.append(BlockDensity(k=k, ell=ell, size=len(blk), delta=delta, start=start))
        start += len(blk)
    densities.extend([Fraction(0)] * len(D.remainder))
    return DensitySchedule(D.source.elements, tuple(densities), blocks=tuple(blocks), kind="blockwise")


def factorial_block_schedule(D: BlockDecomposition) -> DensitySchedule:
    """Blockwise schedule with ell_j = min((j+2)!, |E_j|) on a gross partition.

    Diagnostics report the finite-data ratios behind the two asymptotic
    requirements (ell_j large against log p_{j+1}, log ell_j small against
    log p_j); they are ratios, never pass/fail verdicts.
    """
    if D.partition.kind != "gross":
        raise ValueError("factorial block schedule requires a gross-partition decomposition")
    ells = [min(math.factorial(j + 2), len(blk)) for j, blk in enumerate(D.blocks)]
    sched = blockwise_schedule(D, ells)
    cuts = D.partition.cut_points
    per_block = []
    for j, ell in enumerate(ells):
        entry: dict = {"j": j, "ell": ell, "block_size": len(D.blocks[j])}
        if j + 1 < len(cuts):
            entry["ell_over_log_next_cut"] = ell / ln_int(cuts[j + 1])
        if ell >= 1:
            entry["log_ell_over_log_cut"] = (math.log(ell) if ell > 1 else 0.0) / ln_int(cuts[j])
        per_block.append(entry)
    diagnostics = {"schedule": "factorial_cap", "per_block": per_block}
    return DensitySchedule(
        sched.elements, sched.densities, blocks=sched.blocks, kind="factorial_cap", diagnostics=diagnostics
    )


def decreasing_density_schedule(
    E: IntegerSet,
    form: str = "power_law",
    alpha: float = 1.0,
    densities: Sequence | None = None,
) -> DensitySchedule:
    """Nonincreasing per-element density schedules.

    power_law: delta_k = min(1, k^-alpha) with 0 <= alpha <= 1 (stored as the
    exact binary rational of the float when irrational). pace_based: running
    minimum of the relative gap (|n_k|-|n_{k-1}|)/|n_{k-1}|. custom: caller's
    densities, rejected unless nonincreasing. Diagnostics report the actual
    finite-data ratios for the decrease conditions over k >= max(1, n // 4),
    not verdicts.
    """
    n = len(E)
    if n == 0:
        raise ValueError("empty set")
    if form == "power_law":
        if not 0 <= alpha <= 1:
            raise ValueError("power_law needs 0 <= alpha <= 1 (alpha < 0 would increase)")
        if alpha == 0:
            dens = [Fraction(1)] * n
        elif alpha == 1:
            dens = [Fraction(1, k) for k in range(1, n + 1)]
        else:
            dens = [Fraction(min(1.0, float(k) ** -alpha)) for k in range(1, n + 1)]
    elif form == "pace_based":
        if any(x == 0 for x in E.elements):
            raise ValueError("pace_based schedule undefined when 0 is an element")
        dens = [Fraction(1)]
        for k in range(1, n):
            prev_abs, cur_abs = abs(E.elements[k - 1]), abs(E.elements[k])
            gap = cur_abs - prev_abs
            if gap > 0:
                dens.append(min(dens[-1], min(Fraction(1), Fraction(gap, prev_abs))))
            else:
                dens.append(dens[-1])
    elif form == "custom":
        if densities is None:
            raise ValueError("custom form needs densities")
        dens = [_as_density(d) for d in densities]
        if len(dens) != n:
            raise ValueError("custom densities must align with the set")
        if any(b > a for a, b in zip(dens, dens[1:])):
            raise ValueError("increasing schedule requested; densities must be nonincreasing")
    else:
        raise ValueError(f"unknown schedule form {form!r}")

    diag = _decrease_diagnostics(E, dens)
    diag["form"] = form
    if form == "power_law":
        diag["alpha"] = alpha
    return DensitySchedule(E.elements, tuple(dens), kind=form, diagnostics=diag)


def _decrease_diagnostics(E: IntegerSet, dens: list[Fraction]) -> dict:
    n = len(dens)
    tail_start = max(1, n // 4)
    ratio_a = []
    ratio_b = []
    skipped_gaps = 0
    for k in range(tail_start, n):
        d = float(dens[k])
        prev_abs, cur_abs = abs(E.elements[k - 1]), abs(E.elements[k])
        gap = cur_abs - prev_abs
        if gap > 0 and prev_abs > 0:
            ratio_a.append(d * prev_abs / gap)
        else:
            skipped_gaps += 1
        ratio_b.append(d * (k + 1))
    sig = None
    checkpoints = {}
    cum = Fraction(0)
    marks = sorted({max(1, n // 4), max(1, n // 2), n})
    for k in range(1, n + 1):
        cum += dens[k - 1]
        if k in marks:
            abs_nk = abs(E.elements[k - 1])
            checkpoints[k] = float(cum) / ln_int(abs_nk) if abs_nk > 1 else None
            if k == n:
                sig = float(cum)
    return {
        "tail_start": tail_start,
        "condition_a_min_ratio": min(ratio_a) if ratio_a else None,
        "condition_a_skipped_zero_gaps": skipped_gaps,
        "condition_b_min_ratio": min(ratio_b) if ratio_b else None,
        "sigma_final": sig,
        "sigma_over_log_abs": {str(k): v for k, v in checkpoints.items()},
    }


@dataclass(frozen=True)
class DependenceEstimate:
    s: int
    ell: int
    set_size: int
    trials: int
    dependent_count: int
    frequency: float
    wilson_low: float
    wilson_high: float
    bound: float
    seed: int

    @property
    def wilson_half_width(self) -> float:
        return (self.wilson_high - self.wilson_low) / 2.0

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "ell": self.ell,
            "set_size": self.set_size,
            "trials": self.trials,
            "dependent_count": self.dependent_count,
            "frequency": self.frequency,
            "wilson_99": [self.wilson_low, self.wilson_high],
            "bound": self.bound,
            "seed": self.seed,
        }


def monte_carlo_dependence(E: IntegerSet, ell: int, s: int, trials: int, seed: int) -> DependenceEstimate:
    """Empirical frequency of s-dependence under uniform density ell/|E|,
    with the 99% Wilson interval and the probability bound alongside."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= ell <= len(E):
        raise ValueError("ell must satisfy 0 <= ell <= |E|")
    schedule = uniform_schedule(E, Fraction(ell, len(E)) if len(E) else Fraction(0))
    dependent = 0
    for t in range(trials):
        trial = select(E, schedule, trial_seed(seed, t))
        if not is_s_independent(trial.selected, s).independent:
            dependent += 1
    freq = dependent / trials
    lo, hi = wilson_interval(dependent, trials)
    return DependenceEstimate(
        s=s,
        ell=ell,
        set_size=len(E),
        trials=trials,
        dependent_count=dependent,
        frequency=freq,
        wilson_low=lo,
        wilson_high=hi,
        bound=dependence_probability_bound(s, ell, len(E)),
        seed=seed,
    )
