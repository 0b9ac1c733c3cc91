"""Annular partitions of the integers and block decompositions.

A partition is given by cut points p_0 < p_1 < ...: block 0 is the central
interval [-p_0, p_0], block k >= 1 is the annulus [-p_k, -p_{k-1}) u
(p_{k-1}, p_k]. The dyadic family uses p_k = 2^k; the gross family uses
cut exponents that grow superlinearly (2^{k!} by default).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Sequence

from ._util import ln_int
from .integer_sets import IntegerSet

GROSS_RATIO_THRESHOLD = 1.5


@dataclass(frozen=True)
class Partition:
    cut_points: tuple[int, ...]
    kind: str  # "dyadic" | "gross" | "custom"

    def __post_init__(self) -> None:
        cuts = tuple(int(p) for p in self.cut_points)
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
        return {"kind": self.kind, "cut_points": [str(p) for p in self.cut_points]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Partition":
        return cls(tuple(int(s) for s in doc["cut_points"]), doc["kind"])

    @classmethod
    def from_json(cls, text: str) -> "Partition":
        return cls.from_json_dict(json.loads(text))


def dyadic_partition(k_max: int) -> Partition:
    """Cut points 1, 2, 4, ..., 2^k_max."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    return Partition(tuple(1 << k for k in range(k_max + 1)), "dyadic")


def gross_partition(k_max: int, exponents: Sequence[int] | None = None) -> Partition:
    """Cut points 2^{e_k}; e_k = k! for k = 1..k_max unless given explicitly.

    A custom exponent schedule must be strictly increasing with consecutive
    ratios nondecreasing and above GROSS_RATIO_THRESHOLD, so the cuts
    qualify as gross rather than merely lacunary.
    """
    if exponents is None:
        if k_max < 1:
            raise ValueError("k_max must be >= 1")
        exps = [math.factorial(k) for k in range(1, k_max + 1)]
    else:
        exps = [int(e) for e in exponents]
        if len(exps) < 1:
            raise ValueError("need at least one exponent")
        if any(e < 1 for e in exps) or any(a >= b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must be strictly increasing positive integers")
        ratios = [b / a for a, b in zip(exps, exps[1:])]
        if any(r <= GROSS_RATIO_THRESHOLD for r in ratios):
            raise ValueError(f"gross ratio condition violated: exponent ratio <= {GROSS_RATIO_THRESHOLD}")
        if any(b < a - 1e-12 for a, b in zip(ratios, ratios[1:])):
            raise ValueError("gross ratio condition violated: exponent ratios must be nondecreasing")
    return Partition(tuple(1 << e for e in exps), "gross")


@dataclass(frozen=True)
class BlockDecomposition:
    """Per-block intersections E_k = E n I_k plus the out-of-range remainder."""

    partition: Partition
    source: IntegerSet
    blocks: tuple[IntegerSet, ...]
    remainder: IntegerSet

    def to_json_dict(self, include_elements: bool = False) -> dict:
        doc = {
            "partition": self.partition.to_json_dict(),
            "source_label": self.source.label,
            "source_size": len(self.source),
            "blocks": [
                {
                    "k": k,
                    "interval_hi": str(self.partition.cut_points[k]),
                    "set_size": len(blk),
                    "interval_size": str(self.partition.block_size(k)),
                }
                for k, blk in enumerate(self.blocks)
            ],
            "remainder_size": len(self.remainder),
        }
        if include_elements:
            for k, blk in enumerate(self.blocks):
                doc["blocks"][k]["elements"] = [str(n) for n in blk.elements]
            doc["remainder"] = [str(n) for n in self.remainder.elements]
        return doc


def decompose(E: IntegerSet, partition: Partition) -> BlockDecomposition:
    """Split E into per-block sets; elements beyond the last cut are reported
    as an explicit remainder rather than an implicit extra block."""
    elems = E.elements
    cuts = [0] + [bisect_right(elems, p, key=abs) for p in partition.cut_points]
    blocks = tuple(IntegerSet(elems[lo:hi], f"{E.label}|block{k}") for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])))
    remainder = IntegerSet(elems[cuts[-1] :], f"{E.label}|remainder")
    return BlockDecomposition(partition, E, blocks, remainder)


@dataclass(frozen=True)
class BlockGrowthReport:
    """Ratios log|E_k| / log|I_k| per block; the tail minimum is the finite
    surrogate for blockwise regularity."""

    ratios: tuple[float | None, ...]  # None where the block is empty
    tail_start: int
    min_tail_ratio: float | None
    empty_tail_blocks: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "ratios": [r for r in self.ratios],
            "tail_start": self.tail_start,
            "min_tail_ratio": self.min_tail_ratio,
            "empty_tail_blocks": list(self.empty_tail_blocks),
        }


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

