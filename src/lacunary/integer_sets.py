"""Finite integer sets ordered by absolute value: generators, distribution
function, and growth classification.

Elements are arbitrary-precision Python ints; geometric sequences overflow
64 bits well inside desk scale. `members` (a frozenset) and `array` (int64 if
every |n| < INT64_SAFE, else object) are built on first use and then kept.
"""

from __future__ import annotations

import json
import math
import operator
import warnings
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, compress, islice
from typing import Iterable, Sequence

import numpy as np

from ._util import ln_int

INT64_SAFE = 1 << 62  # |n| below this leaves int64 headroom for sums and small multiples
# classify_growth's verdict margin eta, sample count and fewest usable samples
GROWTH_MARGIN = 0.05
GROWTH_SAMPLES = 48
MIN_GROWTH_SAMPLES = 16


def _abs_order_key(n: int) -> tuple[int, int]:
    # ties |n| = |-n| resolve negative-first; any fixed rule works, this one
    # keeps generation deterministic
    return (abs(n), n)


@dataclass(frozen=True)
class IntegerSet:
    """A finite set of integers, stored sorted by increasing absolute value."""

    elements: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        # strictly increasing (|n|, n) keys mean sorted and duplicate-free
        keys = list(zip(map(abs, elems), elems))
        if any(map(operator.ge, keys, islice(keys, 1, None))):
            raise ValueError("elements must be duplicate-free and sorted by |n| (negative first on ties)")
        object.__setattr__(self, "elements", elems)

    @cached_property
    def members(self) -> frozenset[int]:
        return frozenset(self.elements)

    @cached_property
    def array(self) -> np.ndarray:
        # the dtype is always explicit: np.array([2**63]) alone gives uint64
        return np.array(self.elements, dtype=np.int64 if self.max_abs < INT64_SAFE else object)

    @classmethod
    def from_iterable(cls, values: Iterable[int], label: str = "") -> "IntegerSet":
        return cls(tuple(sorted(set(values), key=_abs_order_key)), label)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, n: int) -> bool:
        return n in self.members

    def __iter__(self):
        return iter(self.elements)

    @property
    def max_abs(self) -> int:
        return abs(self.elements[-1]) if self.elements else 0

    def distribution(self, t: int) -> int:
        """Count of elements with |n| <= t (the distribution function)."""
        if t < 0:
            raise ValueError("distribution function takes a nonnegative threshold")
        return bisect_right(self.elements, t, key=abs)

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"label": self.label, "elements": [str(n) for n in self.elements]}

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IntegerSet":
        return cls.from_iterable((int(s) for s in doc["elements"]), doc.get("label", ""))

    @classmethod
    def from_json(cls, text: str) -> "IntegerSet":
        return cls.from_json_dict(json.loads(text))

    def to_lines(self) -> str:
        """One decimal integer per line, for interop with other tools."""
        return "\n".join(str(n) for n in self.elements) + ("\n" if self.elements else "")

    @classmethod
    def from_lines(cls, text: str, label: str = "") -> "IntegerSet":
        return cls.from_iterable((int(line) for line in text.split() if line.strip()), label)


def distribution_function(E: IntegerSet, t: int) -> int:
    return E.distribution(t)


# -- generators -------------------------------------------------------------


def generate_polynomial(coefficients: Sequence[int], k_max: int) -> IntegerSet:
    """Values P(1), ..., P(k_max) of an integer polynomial.

    `coefficients` are in increasing degree order: [c0, c1, ...] means
    c0 + c1*k + c2*k^2 + ... Duplicate values collapse (with a warning);
    a constant polynomial is rejected.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    coeffs = [int(c) for c in coefficients]
    if not any(c != 0 for c in coeffs[1:]):
        raise ValueError("degenerate polynomial: no nonconstant term")

    def _eval(k: int) -> int:
        acc = 0
        for c in reversed(coeffs):
            acc = acc * k + c
        return acc

    values = [_eval(k) for k in range(1, k_max + 1)]
    distinct = set(values)
    collapsed = len(values) - len(distinct)
    if collapsed:
        warnings.warn(f"{collapsed} duplicate polynomial values collapsed", stacklevel=2)
    label = "P(" + ",".join(str(c) for c in coeffs) + f")[1..{k_max}]"
    return IntegerSet.from_iterable(distinct, label)


def generate_primes(limit: int) -> IntegerSet:
    """All primes <= limit by a sieve of Eratosthenes; empty below 2."""
    if limit < 2:
        return IntegerSet((), f"primes<={limit}")
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return IntegerSet(tuple(compress(range(limit + 1), sieve)), f"primes<={limit}")


def generate_geometric(base: int, k_max: int) -> IntegerSet:
    """{base^1, ..., base^k_max}, exact at any size."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return IntegerSet(tuple(base**k for k in range(1, k_max + 1)), f"{base}^k[1..{k_max}]")


def generate_sumset(base: IntegerSet, j: int) -> IntegerSet:
    """All sums of j distinct elements of a strictly positive base set."""
    if j < 1:
        raise ValueError("j must be positive")
    if j > len(base):
        raise ValueError(f"j={j} exceeds base size {len(base)}")
    if base.elements and base.elements[0] <= 0:
        raise ValueError("sumset base must be strictly positive")
    sums = {sum(combo) for combo in combinations(base.elements, j)}
    return IntegerSet.from_iterable(sums, f"{base.label or 'base'}+^{j}")


def generate_integers(n_max: int) -> IntegerSet:
    """{1, ..., n_max}: the reference equidistributed sequence."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return IntegerSet(tuple(range(1, n_max + 1)), f"1..{n_max}")


# -- growth classification --------------------------------------------------


@dataclass(frozen=True)
class GrowthReport:
    """Finite-data growth fit over a declared range of thresholds.

    epsilon_hat is the worst sampled exponent log E[t] / log t (capped at 1:
    counting both signs can push the raw ratio above 1); c_hat is the worst
    sampled doubling ratio E[2t]/E[t]. The margin eta turns them into the
    polynomial / regular verdicts.
    """

    epsilon_hat: float
    c_hat: float
    is_polynomial: bool
    is_regular: bool
    fit_range: tuple[int, int]
    margin: float
    sample_count: int
    samples: tuple[tuple[int, int, int], ...] = field(repr=False)  # (t, E[t], E[2t])

    def to_json_dict(self) -> dict:
        return {
            "epsilon_hat": self.epsilon_hat,
            "c_hat": self.c_hat,
            "is_polynomial": self.is_polynomial,
            "is_regular": self.is_regular,
            "fit_range": [str(self.fit_range[0]), str(self.fit_range[1])],
            "margin": self.margin,
            "sample_count": self.sample_count,
        }


def _geometric_grid(t_min: int, t_max: int, count: int) -> list[int]:
    # stepped in log2 space so thresholds far beyond float range still work
    if t_min > t_max:
        return []
    from ._util import log2_int

    lo, hi = log2_int(t_min), log2_int(t_max)
    out: list[int] = []
    for i in range(count):
        x = lo + (hi - lo) * i / max(count - 1, 1)
        e = int(x)
        if e <= 52:
            t = int(round(2.0**x))
        else:
            t = int(round(2.0 ** (x - e + 52))) << (e - 52)
        t = min(max(t, t_min), t_max)
        if not out or t > out[-1]:
            out.append(t)
    if out and out[-1] != t_max:
        out.append(t_max)
    return out


def classify_growth(E: IntegerSet, fit_range: tuple[int, int] | None = None) -> GrowthReport:
    """Fit the distribution function over `fit_range` and classify growth
    with margin GROWTH_MARGIN.

    Defaults to the tail range [sqrt(max|n|), max|n|/2]; the upper end is
    halved so E[2t] stays inside the data. Raises on fewer than
    MIN_GROWTH_SAMPLES usable thresholds.
    """
    if len(E) == 0:
        raise ValueError("insufficient data: empty set")
    max_abs = E.max_abs
    if fit_range is None:
        fit_range = (max(2, math.isqrt(max_abs)), max(2, max_abs // 2))
    t_min, t_max = int(fit_range[0]), int(fit_range[1])
    if t_min < 2:
        t_min = 2
    grid = _geometric_grid(t_min, t_max, GROWTH_SAMPLES)
    samples = [(t, E.distribution(t), E.distribution(2 * t)) for t in grid]
    samples = [s for s in samples if s[1] >= 1]
    if len(samples) < MIN_GROWTH_SAMPLES:
        raise ValueError(
            f"insufficient data: {len(samples)} usable samples in [{t_min}, {t_max}], need {MIN_GROWTH_SAMPLES}"
        )
    epsilon_raw = min(ln_int(et) / ln_int(t) if et > 1 else 0.0 for t, et, _ in samples)
    epsilon_hat = min(1.0, epsilon_raw)
    c_hat = min(e2t / et for _, et, e2t in samples)
    is_regular = c_hat > 1.0 + GROWTH_MARGIN
    is_polynomial = epsilon_hat > GROWTH_MARGIN or is_regular
    return GrowthReport(
        epsilon_hat=epsilon_hat,
        c_hat=c_hat,
        is_polynomial=is_polynomial,
        is_regular=is_regular,
        fit_range=(t_min, t_max),
        margin=GROWTH_MARGIN,
        sample_count=len(samples),
        samples=tuple(samples),
    )
