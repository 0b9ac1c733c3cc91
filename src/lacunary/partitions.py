"""Annular partitions of the integers and block decompositions.

A partition is given by cut points p_0 < p_1 < ...: block 0 is the central
interval [-p_0, p_0], block k >= 1 is the annulus [-p_k, -p_{k-1}) u
(p_{k-1}, p_k]. The dyadic family uses p_k = 2^k; the gross family uses
cut exponents that grow superlinearly (2^{k!} by default).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence

from ._util import Doc, check_keys, decimal_strs, fields_json_dict, json_ints, json_str, ln_int, read_json
from .integer_sets import IntegerSet

GROSS_RATIO_THRESHOLD = 1.5


@dataclass(frozen=True)
class Partition(Doc):
    cut_points: tuple[int, ...]
    kind: str  # "dyadic" | "gross" | "custom"

    def __post_init__(self) -> None:
        cuts = tuple(_integers(self.cut_points, "cut points"))
        if not cuts:
            raise ValueError("partition needs at least one cut point")
        if cuts[0] < 1 or any(a >= b for a, b in zip(cuts, cuts[1:])):
            raise ValueError("cut points must be strictly increasing positive integers")
        if self.kind not in ("dyadic", "gross", "custom"):
            raise ValueError(f"unknown partition kind {self.kind!r}")
        object.__setattr__(self, "cut_points", cuts)

    @property
    def block_count(self) -> int:
        return len(self.cut_points)

    def block_interval(self, k: int) -> tuple[int, int]:
        """(lo, hi] bounds of the positive side of block k; block 0 is [0, p_0]."""
        if not 0 <= k < self.block_count:
            raise ValueError("block index out of range")
        if k == 0:
            return (0, self.cut_points[0])
        return (self.cut_points[k - 1], self.cut_points[k])

    def block_size(self, k: int) -> int:
        """Number of integers in block k (exact, bignum-safe)."""
        lo, hi = self.block_interval(k)
        if k == 0:
            return 2 * hi + 1
        return 2 * (hi - lo)

    def block_of(self, n: int) -> int | None:
        """Block index containing n, or None when |n| exceeds the last cut."""
        a = abs(n)
        if a > self.cut_points[-1]:
            return None
        return bisect_right(self.cut_points, a - 1) if a > 0 else 0

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "cut_points": decimal_strs(self.cut_points, f"{self.kind} partition cut_points")}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Partition":
        ctx = " in partition JSON"
        check_keys(doc, ("cut_points", "kind"), context=ctx)
        cuts = read_json(doc, "cut_points", json_ints, "a list of integers", ctx)
        return cls(tuple(cuts), read_json(doc, "kind", json_str, "a string", ctx))


def _integers(values: Sequence, name: str) -> list[int]:
    # int() would cut 1.5 to 1 and read True as 1, so neither passes; inf and
    # nan are refused before int() raises on them
    for v in values:
        if type(v) is bool or not (isinstance(v, int) or math.isfinite(v)) or v != int(v):
            raise ValueError(f"{name} must be integers, got {v!r}")
    return [int(v) for v in values]


def dyadic_partition(k_max: int) -> Partition:
    """Cut points 1, 2, 4, ..., 2^k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return Partition(_powers_of_two(range(k_max + 1), "k_max"), "dyadic")


def _powers_of_two(exps: Iterable[int], key: str) -> tuple[int, ...]:
    """2^e for each e, refusing before its shift an e past 14284: 2^14284 is the
    largest power of two of at most 4,300 digits, the most Python writes out."""
    cuts = []
    for e in exps:
        if e > 14_284:
            raise ValueError(f"{key}: cut 2^{e} is past 2^14284, the largest power of two of at most 4300 digits")
        cuts.append(1 << e)
    return tuple(cuts)


def gross_partition(k_max: int, exponents: Sequence[int] | None = None) -> Partition:
    """Cut points 2^{e_k}; e_k = k! for k = 1..k_max unless given explicitly.

    A custom exponent schedule must be strictly increasing with consecutive
    ratios nondecreasing and above GROSS_RATIO_THRESHOLD, so the cuts
    qualify as gross rather than merely lacunary.
    """
    if exponents is None:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        return Partition(_powers_of_two((math.factorial(k) for k in range(1, k_max + 1)), "k_max"), "gross")
    exps = _integers(exponents, "exponents")
    if len(exps) < 1:
        raise ValueError("need at least one exponent")
    if any(e < 1 for e in exps) or any(a >= b for a, b in zip(exps, exps[1:])):
        raise ValueError("exponents must be strictly increasing positive integers")
    cuts = _powers_of_two(exps, "exponents")  # before the ratios, which no float holds past 2^1024
    ratios = [b / a for a, b in zip(exps, exps[1:])]
    if any(r <= GROSS_RATIO_THRESHOLD for r in ratios):
        raise ValueError(f"gross ratio condition violated: exponent ratio <= {GROSS_RATIO_THRESHOLD}")
    if any(b < a - 1e-12 for a, b in zip(ratios, ratios[1:])):
        raise ValueError("gross ratio condition violated: exponent ratios must be nondecreasing")
    return Partition(cuts, "gross")


@dataclass(frozen=True)
class BlockDecomposition:
    """Per-block intersections E_k = E n I_k plus the out-of-range remainder."""

    partition: Partition
    source: IntegerSet
    blocks: tuple[IntegerSet, ...]
    remainder: IntegerSet

    def to_json_dict(self) -> dict:
        partition = self.partition.to_json_dict()
        sizes = [self.partition.block_size(k) for k in range(len(self.blocks))]
        sizes = decimal_strs(sizes, f"decomposition of {self.source.label!r} interval sizes")
        return {
            "partition": partition,
            "source_label": self.source.label,
            "source_size": len(self.source),
            "blocks": [
                {"k": k, "interval_hi": hi, "set_size": len(blk), "interval_size": size}
                for k, (blk, hi, size) in enumerate(zip(self.blocks, partition["cut_points"], sizes))
            ],
            "remainder_size": len(self.remainder),
        }


def decompose(E: IntegerSet, partition: Partition) -> BlockDecomposition:
    """Split E into per-block sets; elements beyond the last cut are reported
    as an explicit remainder rather than an implicit extra block."""
    elems = E.elements
    cuts = [0] + [bisect_right(elems, p, key=abs) for p in partition.cut_points]
    blocks = tuple(E._part(elems[lo:hi], f"{E.label}|block{k}") for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])))
    remainder = E._part(elems[cuts[-1] :], f"{E.label}|remainder")
    return BlockDecomposition(partition, E, blocks, remainder)


@dataclass(frozen=True)
class BlockGrowthReport:
    """Ratios log|E_k| / log|I_k| per block; the tail minimum is the finite
    surrogate for blockwise regularity."""

    ratios: tuple[float | None, ...]  # None where the block is empty
    tail_start: int
    min_tail_ratio: float | None
    empty_tail_blocks: tuple[int, ...]
    to_json_dict = fields_json_dict


def verify_block_growth(D: BlockDecomposition, tail_start: int = 1) -> BlockGrowthReport:
    """Per-block log-size ratios and their minimum over the declared tail.

    Empty tail blocks are flagged (ratio undefined) instead of failing; the
    caller decides what an empty annulus means for its sequence.
    """
    if not 0 <= tail_start < D.partition.block_count:
        raise ValueError("tail_start out of range")
    ratios: list[float | None] = []
    for k, blk in enumerate(D.blocks):
        if len(blk) == 0:
            ratios.append(None)
        else:
            interval = D.partition.block_size(k)
            ratios.append(ln_int(len(blk)) / ln_int(interval) if interval > 1 else 1.0)
    tail = list(range(tail_start, len(ratios)))
    empties = tuple(k for k in tail if ratios[k] is None)
    defined = [ratios[k] for k in tail if ratios[k] is not None]
    return BlockGrowthReport(
        ratios=tuple(ratios),
        tail_start=tail_start,
        min_tail_ratio=min(defined) if defined else None,
        empty_tail_blocks=empties,
    )

