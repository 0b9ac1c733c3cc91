"""Random selector machinery: density schedules (stored as constant-density
segments, their per-element densities derived), reproducible counter-based
selection, and Monte Carlo validation of the dependence probability bound.

Selection of element i under seed s is a pure function of (s, i): a
splitmix-style mixer turns the pair into a uniform 64-bit word, compared
against the exact rational density threshold. No generator state exists, so
results are independent of evaluation order and thread count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain, compress, groupby, repeat
from typing import Sequence

import numpy as np

from ._util import (
    Doc, check_keys, decimal_lines, decimal_strs, fraction_strs, json_distinct_ints, json_int, json_ints, json_list,
    json_str, ln_int, read_json, wilson_interval,
)
from .integer_sets import IntegerSet
from .partitions import BlockDecomposition, _integers
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
    # checked before the conversion, which raises OverflowError on inf
    if not 0 <= value <= 1:
        raise ValueError(f"density {value} outside [0, 1]")
    return Fraction(value)


@dataclass(frozen=True)
class BlockDensity:
    """Constant-density span of a schedule: block k holds `size` elements
    starting at `start`, each kept with probability ell/size."""

    k: int
    ell: int
    size: int
    delta: Fraction
    start: int


@dataclass(frozen=True, init=False)
class DensitySchedule(Doc):
    """A density per element of `elements`, stored as its maximal constant
    runs: `segments` holds (start, size, delta), size >= 1, in order, no two
    neighbours equal. It is built from one density per element; `densities`,
    that per-element view, is derived."""

    elements: tuple[int, ...]
    segments: tuple[tuple[int, int, Fraction], ...]
    blocks: tuple[BlockDensity, ...] | None  # set only by _from_blocks, which checks them
    kind: str
    diagnostics: dict | None = field(compare=False)

    def __init__(self, elements, densities, kind="custom", diagnostics=None) -> None:
        self._set(elements, [(sum(1 for _ in run), d) for d, run in groupby(densities)], None, kind, diagnostics)

    def _set(self, elements, runs: list[tuple[int, Fraction]], blocks, kind: str, diag) -> "DensitySchedule":
        # every schedule is built here from (size, delta) runs: each delta is checked
        # once, and equal neighbours merge, so equal schedules hold equal segments
        if any(size < 0 for size, _ in runs) or sum(size for size, _ in runs) != len(elements):
            raise ValueError("schedule entries must align one density per element")
        segs: list[tuple[int, int, Fraction]] = []
        for start, (size, delta) in zip(accumulate((size for size, _ in runs), initial=0), runs):
            delta = _as_density(delta)
            if segs and segs[-1][2] == delta:
                segs[-1] = (segs[-1][0], segs[-1][1] + size, delta)
            elif size:
                segs.append((start, size, delta))
        # frozen, so set past __setattr__; _sigma, sigma_at's memo, is no field
        vars(self).update(elements=elements, segments=tuple(segs), blocks=blocks, kind=kind, diagnostics=diag, _sigma={})
        return self

    @property
    def densities(self) -> tuple[Fraction, ...]:
        return tuple(chain.from_iterable(repeat(delta, size) for _, size, delta in self.segments))

    def __len__(self) -> int:
        return len(self.elements)

    def sigma_at(self, k: int) -> Fraction:
        """Exact partial sum of the first k densities, remembered per k."""
        if not 0 <= k <= len(self.elements):
            raise ValueError("sigma index out of range")
        if k not in self._sigma:
            parts = (min(size, k - start) * delta for start, size, delta in self.segments if start < k)
            self._sigma[k] = sum(parts, Fraction(0))
        return self._sigma[k]

    @cached_property
    def _floats(self) -> np.ndarray:
        """density_floats' array, read-only: kept beside _sigma, in no field, so equality and JSON ignore it."""
        floats = np.repeat([float(delta) for *_, delta in self.segments], [size for _, size, _ in self.segments])
        floats.flags.writeable = False
        return floats

    def density_floats(self) -> np.ndarray:
        """float(delta_j) for every element (read-only), one conversion per segment, once per schedule."""
        return self._floats

    def aligned_with(self, E: IntegerSet) -> bool:
        return self.elements is E.elements or self.elements == E.elements

    def to_json_dict(self) -> dict:
        """Blocks and per-block sigma for a blockwise schedule, else every
        (element, density) entry and the running sigma."""
        sig = np.cumsum(self.density_floats())
        name = f"the {self.kind} schedule's"
        doc: dict = {
            "schema": 1,
            "kind": self.kind,
            "size": len(self.elements),
            "elements_sha256": _digest(self.elements, f"{name} elements"),
        }
        if self.blocks is not None:
            deltas = fraction_strs([b.delta for b in self.blocks], f"{name} block deltas")
            doc["blocks"] = [
                {"k": b.k, "ell": b.ell, "size": b.size, "delta": delta, "start": b.start}
                for b, delta in zip(self.blocks, deltas)
            ]
            doc["sigma"] = [float(sig[b.start + b.size - 1]) for b in self.blocks if b.size > 0]
        else:
            doc["sigma"] = [float(x) for x in sig]
            elements = decimal_strs(self.elements, f"{name} elements")
            doc["entries"] = [list(pair) for pair in zip(elements, fraction_strs(self.densities, f"{name} densities"))]
        if self.diagnostics is not None:
            doc["diagnostics"] = self.diagnostics
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, E: IntegerSet | None = None) -> "DensitySchedule":
        ctx = " in schedule JSON"
        check_keys(doc, (), context=ctx)
        kind = read_json(doc, "kind", json_str, "a string", ctx) if "kind" in doc else "custom"
        if "entries" not in doc:
            check_keys(doc, ("elements_sha256", "blocks"), context=ctx)
            listed = read_json(doc, "blocks", json_list, "a list", ctx)
            blocks = tuple(_block_density(i, b) for i, b in enumerate(listed))
            if E is None:
                raise ValueError("block-form schedule JSON needs the source set to realign")
            if _digest(E.elements, f"set {E.label!r}") != doc["elements_sha256"]:
                raise ValueError("schedule does not match this set (digest mismatch)")
            return cls._from_blocks(E.elements, blocks, kind)
        if "blocks" in doc:  # every block list goes through _from_blocks, which checks its tiling
            raise ValueError("schedule JSON holds entries or blocks, not both")
        pairs = read_json(doc, "entries", lambda v: json_list(v, _entry), "a list of [element, density] pairs", ctx)
        sched = cls(tuple(n for n, _ in pairs), tuple(d for _, d in pairs), kind=kind)
        if E is not None and not sched.aligned_with(E):
            raise ValueError("schedule misaligned with set")
        return sched

    @classmethod
    def _from_blocks(cls, elements: tuple, blocks: Sequence[BlockDensity], kind: str, diagnostics=None):
        """Each block's delta over its span, density 0 past the last. block_counts
        and the per-block sigma read start and ell, so blocks 0, 1, ... must tile
        a prefix of `elements` in that order, each with ell = delta * size."""
        starts = list(accumulate((b.size for b in blocks), initial=0))
        for i, (b, start) in enumerate(zip(blocks, starts)):
            if b.k != i or b.start != start or b.size < 0:
                raise ValueError(f"schedule block {i} (k {b.k}, start {b.start}, size {b.size}) breaks the tiling from 0")
            if b.ell != b.delta * b.size:
                raise ValueError(f"schedule block {b.k} has ell {b.ell}, not delta * size = {b.delta * b.size}")
        # blocks past the end of elements leave a negative tail, which _set refuses
        runs = [(b.size, b.delta) for b in blocks] + [(len(elements) - starts[-1], Fraction(0))]
        return cls.__new__(cls)._set(elements, runs, tuple(blocks), kind, diagnostics)


def _block_density(i: int, b: dict) -> BlockDensity:
    prefix, ctx = f"blocks[{i}].", " in schedule JSON"
    check_keys(b, ("k", "ell", "size", "delta", "start"), prefix=prefix, context=ctx)
    k, ell, size, start = (
        read_json(b, key, json_int, "an integer", ctx, prefix + key) for key in ("k", "ell", "size", "start")
    )
    return BlockDensity(k, ell, size, read_json(b, "delta", _json_density, "a rational", ctx, prefix + "delta"), start)


def _entry(pair) -> tuple[int, Fraction]:
    n, d = json_list(pair)
    return json_int(n), _json_density(d)


def _json_density(value) -> Fraction:
    """A JSON density: a number or an "a/b" string; a bool is refused."""
    if type(value) is bool:
        raise TypeError(f"not a density: {value!r}")
    return Fraction(value)


def _digest(elements: Sequence[int], name: str) -> str:
    """sha256 of the elements in decimal, one per line; `name` names them if
    one is too long to write."""
    return hashlib.sha256(decimal_lines(elements, name).encode()).hexdigest()


def uniform_schedule(E: IntegerSet, delta) -> DensitySchedule:
    return DensitySchedule.__new__(DensitySchedule)._set(E.elements, [(len(E), delta)], None, "uniform", None)


@dataclass(frozen=True)
class SelectionTrial(Doc):
    seed: int
    selected: IntegerSet
    block_counts: tuple[int, ...] | None = None
    source_size: int = 0
    source_label: str = ""

    def to_json_dict(self) -> dict:
        decimal_strs([self.seed], f"seed of trial of {self.source_label!r}")  # refused naming the trial
        doc: dict = {
            "schema": 1,
            "seed": self.seed,
            "source_label": self.source_label,
            "source_size": self.source_size,
            "selected": decimal_strs(self.selected.elements, f"trial of {self.source_label!r}"),
        }
        if self.block_counts is not None:
            doc["block_counts"] = list(self.block_counts)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict, E: IntegerSet | None = None) -> "SelectionTrial":
        if type(doc) is dict and doc.get("format") == "bitmap":
            return cls.from_bitmap_json_dict(doc, E)
        ctx = " in trial JSON"
        check_keys(doc, ("seed", "selected"), context=ctx)
        listed = read_json(doc, "selected", json_distinct_ints, "a list of distinct integers", ctx)
        selected = IntegerSet.from_iterable(listed, "selected")
        counts = read_json(doc, "block_counts", json_ints, "a list of integers", ctx) if "block_counts" in doc else None
        if counts is not None and (min(counts, default=0) < 0 or sum(counts) != len(selected)):
            raise ValueError(f"key 'block_counts'{ctx} must be nonnegative and sum to {len(selected)}, got {counts}")
        if E is not None:  # an element outside E is named before a source_size that is not |E|
            E.positions(selected)
        return cls(
            seed=read_json(doc, "seed", json_int, "an integer", ctx),
            selected=selected,
            block_counts=None if counts is None else tuple(counts),
            **_source_keys(doc, E, ctx),
        )

    def mask(self, E: IntegerSet) -> np.ndarray:
        """One flag per element of E, set where it is selected; a trial that
        holds an element outside E is refused."""
        flags = np.zeros(len(E), dtype=bool)
        flags[E.positions(self.selected)] = True
        return flags

    def to_bitmap_json_dict(self, E: IntegerSet) -> dict:
        """Compact form: one bit per source element, plus the source digest."""
        flags = self.mask(E)
        decimal_strs([self.seed], f"seed of trial of {E.label!r}")  # refused naming the trial
        return {
            "schema": 1,
            "format": "bitmap",
            "seed": self.seed,
            "source_label": E.label,
            "source_size": len(E),
            "elements_sha256": _digest(E.elements, f"set {E.label!r}"),
            "bits_hex": np.packbits(flags, bitorder="little").tobytes().hex(),
        }

    @classmethod
    def from_bitmap_json_dict(cls, doc: dict, E: IntegerSet | None) -> "SelectionTrial":
        ctx = " in bitmap trial JSON"
        check_keys(doc, ("seed", "source_size", "elements_sha256", "bits_hex"), context=ctx)
        seed = read_json(doc, "seed", json_int, "an integer", ctx)
        if E is None:
            raise ValueError("bitmap trial JSON needs the source set to decode")
        if _digest(E.elements, f"set {E.label!r}") != doc["elements_sha256"]:
            raise ValueError("trial does not match this set (digest mismatch)")
        buf = np.frombuffer(read_json(doc, "bits_hex", bytes.fromhex, "a hex string", ctx), dtype=np.uint8)
        if len(buf) != (len(E) + 7) // 8:
            raise ValueError(f"bitmap holds {len(buf)} bytes, the set needs {(len(E) + 7) // 8}")
        if len(E) % 8 and buf[-1] >> (len(E) % 8):
            raise ValueError(f"bitmap sets padding bits past the set's {len(E)} elements")
        picked = tuple(compress(E.elements, np.unpackbits(buf, count=len(E), bitorder="little").tolist()))
        return cls(
            seed=seed,
            selected=E._part(picked, _selected_label(E, seed)),
            **_source_keys(doc, E, ctx),
        )


def _source_keys(doc: dict, E: IntegerSet | None, ctx: str) -> dict:
    """A trial's source_size (0 when absent), which must be |E| when E is given, and source_label ("" when absent)."""
    size = read_json(doc, "source_size", json_int, "an integer", ctx) if "source_size" in doc else 0
    if E is not None and "source_size" in doc and size != len(E):
        raise ValueError(f"key 'source_size'{ctx} must be {len(E)}, the size of set {E.label!r}, got {size}")
    label = read_json(doc, "source_label", json_str, "a string", ctx) if "source_label" in doc else ""
    return {"source_size": size, "source_label": label}


def _selected_label(E: IntegerSet, seed: int) -> str:
    # a seed too long to write in decimal is refused naming it
    return f"{E.label}|seed{decimal_strs([seed], f'seed of a selection from {E.label!r}')[0]}"


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
    selected = E._part(tuple(map(E.elements.__getitem__, picked_idx.tolist())), _selected_label(E, seed))
    block_counts = None
    if schedule.blocks is not None:
        ends = np.searchsorted(picked_idx, [b.start + b.size for b in schedule.blocks])  # they tile a prefix of E
        block_counts = tuple(np.diff(ends, prepend=0).tolist())
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
    return DensitySchedule._from_blocks(D.source.elements, _ell_blocks(D, ells), "blockwise")


def _ell_blocks(D: BlockDecomposition, ells: Sequence[int]) -> list[BlockDensity]:
    """Block k of D at density ell_k / |E_k|, 0 on an empty block."""
    if len(ells) != len(D.blocks):
        raise ValueError(f"need one ell per block ({len(D.blocks)}), got {len(ells)}")
    blocks: list[BlockDensity] = []
    ells, starts = _integers(ells, "ells"), accumulate(map(len, D.blocks), initial=0)
    for k, (blk, ell, start) in enumerate(zip(D.blocks, ells, starts)):
        if ell < 0 or ell > len(blk):
            raise ValueError(f"block {k}: ell={ell} outside [0, |E_k|={len(blk)}]")
        blocks.append(BlockDensity(k, ell, len(blk), Fraction(ell, len(blk)) if len(blk) else Fraction(0), start))
    return blocks


def factorial_block_schedule(D: BlockDecomposition) -> DensitySchedule:
    """Blockwise schedule with ell_j = min((j+2)!, |E_j|) on a gross partition.

    Diagnostics report the finite-data ratios behind the two asymptotic
    requirements (ell_j large against log p_{j+1}, log ell_j small against
    log p_j); they are ratios, never pass/fail verdicts.
    """
    if D.partition.kind != "gross":
        raise ValueError("factorial block schedule requires a gross-partition decomposition")
    ells = [min(math.factorial(j + 2), len(blk)) for j, blk in enumerate(D.blocks)]
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
    return DensitySchedule._from_blocks(D.source.elements, _ell_blocks(D, ells), "factorial_cap", diagnostics)


def decreasing_density_schedule(
    E: IntegerSet,
    form: str = "power_law",
    alpha: float = 1.0,
    densities: Sequence | None = None,
) -> DensitySchedule:
    """Nonincreasing per-element density schedules.

    power_law: delta_k = min(1, k^-alpha) with 0 <= alpha <= 1; alpha 0 and 1
    give exact 1 and 1/k, and for 0 < alpha < 1 each delta_k is the exact binary
    rational of the float, rational values included (9^-0.5 is stored as
    6004799503160661/2^54, not 1/3). pace_based: running minimum of the
    relative gap (|n_k|-|n_{k-1}|)/|n_{k-1}|. custom: caller's densities,
    rejected unless nonincreasing. Diagnostics report the actual finite-data
    ratios for the decrease conditions over k >= max(1, n // 4), not verdicts.
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

    sched = DensitySchedule(E.elements, tuple(dens), kind=form, diagnostics={})
    sched.diagnostics.update(_decrease_diagnostics(E, sched), form=form)
    if form == "power_law":
        sched.diagnostics["alpha"] = alpha
    return sched


def _decrease_diagnostics(E: IntegerSet, sched: DensitySchedule) -> dict:
    n = len(sched)
    dens = sched.density_floats().tolist()
    tail_start = max(1, n // 4)
    ratio_a = []
    ratio_b = []
    skipped_gaps = 0
    for k in range(tail_start, n):
        prev_abs, cur_abs = abs(E.elements[k - 1]), abs(E.elements[k])
        gap = cur_abs - prev_abs
        if gap > 0 and prev_abs > 0:
            ratio_a.append(dens[k] * prev_abs / gap)
        else:
            skipped_gaps += 1
        ratio_b.append(dens[k] * (k + 1))
    checkpoints = {}
    for k in sorted({max(1, n // 4), max(1, n // 2), n}):
        abs_nk = abs(E.elements[k - 1])
        checkpoints[k] = float(sched.sigma_at(k)) / ln_int(abs_nk) if abs_nk > 1 else None
    return {
        "tail_start": tail_start,
        "condition_a_min_ratio": min(ratio_a) if ratio_a else None,
        "condition_a_skipped_zero_gaps": skipped_gaps,
        "condition_b_min_ratio": min(ratio_b) if ratio_b else None,
        "sigma_final": float(sched.sigma_at(n)),
        "sigma_over_log_abs": {str(k): v for k, v in checkpoints.items()},
    }


def below_bound_with_slack(frequency: float, bound: float, wilson_low: float, wilson_high: float) -> bool:
    """A dependence frequency at most its bound plus three half-widths of its
    99% Wilson interval. A frequency is at most 1, so a bound of 1 or more
    always holds."""
    return frequency <= bound + 3.0 * (wilson_high - wilson_low) / 2.0


@dataclass(frozen=True)
class DependenceEstimate(Doc):
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
        decimal_strs([self.seed], f"seed of the {self.s}-dependence estimate")  # refused naming the estimate
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
    decimal_strs([seed], f"seed of the {s}-dependence estimate")  # the estimate could not be written
    # the bound refuses s < 2, an empty E and ell outside [0, |E|] before any trial
    bound = dependence_probability_bound(s, ell, len(E))
    schedule = uniform_schedule(E, Fraction(ell, len(E)))
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
        bound=bound,
        seed=seed,
    )
