"""Shared numeric helpers: bignum logarithms, canonical JSON, confidence intervals."""

from __future__ import annotations

import json
import math
from typing import Any

# z quantile for a two-sided 99% interval
Z_99 = 2.5758293035489004


def log2_int(n: int) -> float:
    """log2 of a positive integer, safe for values far beyond float range.

    Splits off the high 64 bits so the float conversion never overflows;
    accuracy is limited only by the 53-bit mantissa of the result.
    """
    if n <= 0:
        raise ValueError("log2_int requires a positive integer")
    bl = n.bit_length()
    if bl <= 64:
        return math.log2(n)
    shift = bl - 64
    return shift + math.log2(n >> shift)


def ln_int(n: int) -> float:
    """Natural log of a positive integer via log2_int."""
    return log2_int(n) * math.log(2.0)


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("wilson_interval requires trials >= 1")
    if not 0 <= successes <= trials:
        raise ValueError("successes out of range")
    p = successes / trials
    z = Z_99
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON used for hashing and golden comparisons."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
