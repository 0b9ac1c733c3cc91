"""Finite integer sets ordered by absolute value: generators, distribution
function, and growth classification.

Elements are arbitrary-precision Python ints; geometric sequences overflow
64 bits well inside desk scale. `members` (a frozenset) and `array` (int64 if
every |n| < INT64_SAFE, else object) are built on first use and then kept.

One rule puts values in the (|n|, n) order: at least NUMPY_ORDER_CHECK values
that fit int64 with |n| < INT64_SAFE are sorted and deduplicated in numpy on
the key 2|n| + (n > 0), any others by Python's sort. `IntegerSet(...)` checks
that order on caller data; the generators and `from_iterable` build their
elements in it and skip the check. A polynomial whose
values and Horner intermediates provably stay below INT64_SAFE is evaluated
on an int64 array; any other runs in Python ints.
"""

from __future__ import annotations

import math
import operator
import reprlib
import sys
import warnings
from bisect import bisect_right
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, combinations, islice, repeat
from typing import Iterable, Sequence

import numpy as np

from ._util import (
    Doc, check_keys, decimal_lines, decimal_strs, fields_json_dict, json_distinct_ints, json_str, ln_int, read_json
)

INT64_SAFE = 1 << 62  # |n| below this leaves int64 headroom for sums and small multiples
# sets of at least this many elements check their order in numpy when they fit int64;
# below it the array's fixed cost exceeds the interpreted check (the two cross
# between 128 and 192 elements; at 256 numpy takes three quarters of the time)
NUMPY_ORDER_CHECK = 256
# classify_growth's verdict margin eta, sample count and fewest usable samples
GROWTH_MARGIN = 0.05
GROWTH_SAMPLES = 48
MIN_GROWTH_SAMPLES = 16


def _abs_order_key(n: int) -> tuple[int, int]:
    # ties |n| = |-n| resolve negative-first; any fixed rule works, this one
    # keeps generation deterministic
    return (abs(n), n)


def _int64_keys(values: Sequence[int] | np.ndarray) -> np.ndarray | None:
    """The keys 2|n| + (n > 0), which increase along the (|n|, n) order while
    |n| < INT64_SAFE, of an int64 array or of at least NUMPY_ORDER_CHECK
    values that numpy reads as int64, when every |n| < INT64_SAFE; None for
    anything else (short, bignum, not all ints), which Python orders."""
    arr = values if isinstance(values, np.ndarray) else np.array(values) if len(values) >= NUMPY_ORDER_CHECK else None
    if arr is None or arr.dtype != np.int64 or not (-INT64_SAFE < arr.min() and arr.max() < INT64_SAFE):
        return None
    return 2 * np.abs(arr) + (arr > 0)


def _abs_ordered(elems: tuple) -> bool:
    """Whether the (|n|, n) keys of `elems` strictly increase: sorted and
    duplicate-free, compared on the int64 keys where they apply; the array is
    not kept, so `array` stays a view built on first use. A last element past
    INT64_SAFE, as in every sorted bignum set, skips the array."""
    if elems and abs(elems[-1]) < INT64_SAFE and (keys := _int64_keys(elems)) is not None:
        return bool(np.all(np.diff(keys) > 0))
    keys = list(zip(map(abs, elems), elems))
    return not any(map(operator.ge, keys, islice(keys, 1, None)))


def _abs_sorted(values: list[int] | np.ndarray) -> tuple[int, ...]:
    """The distinct `values` in the (|n|, n) order, as Python ints: their
    int64 keys sorted and deduplicated by a mask (np.unique hashes first in
    numpy 2.4, about 50 times slower on 10^6 keys), or else Python's sort."""
    keys = _int64_keys(values)
    if keys is None:
        return tuple(sorted(set(values), key=_abs_order_key))
    keys.sort()
    keys = keys[np.append(True, keys[1:] != keys[:-1])]
    half = keys >> 1
    return tuple(np.where(keys & 1, half, -half).tolist())


@dataclass(frozen=True)
class IntegerSet(Doc):
    """A finite set of integers, stored sorted by increasing absolute value."""

    elements: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        elems = tuple(self.elements)
        if not _abs_ordered(elems):
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
    def _part(cls, elements: tuple[int, ...], label: str) -> "IntegerSet":
        """`elements`, a tuple in (|n|, n) order by construction (a generator's
        output, or an in-order subsequence of a validated set), as a set named
        `label`. The order check of __init__ is skipped, so caller data never
        comes this way; a field added to the class must be set here too."""
        assert [f.name for f in fields(IntegerSet)] == ["elements", "label"]
        part = object.__new__(cls)
        object.__setattr__(part, "elements", elements)
        object.__setattr__(part, "label", label)
        return part

    def positions(self, sub: "IntegerSet") -> np.ndarray:
        """Index in this set of each element of `sub`, by one sorted search on
        the key 2|n| + (n > 0), which increases along the (|n|, n) order on int64
        and object arrays alike. The first element of `sub` not in this set is
        named in the ValueError that refuses it."""
        keys, sub_keys = (2 * np.abs(a) + (a > 0) for a in (self.array, sub.array))
        idx = np.searchsorted(keys, sub_keys)
        foreign = np.flatnonzero(np.append(keys, -1)[idx] != sub_keys)  # -1: the search ran off the end
        if len(foreign):
            raise ValueError(f"trial element {sub.elements[foreign[0]]} is outside {self.label!r}")
        return idx

    @classmethod
    def from_iterable(cls, values: Iterable[int], label: str = "") -> "IntegerSet":
        return cls._part(_abs_sorted(list(values)), label)

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
        return {"label": self.label, "elements": decimal_strs(self.elements, f"set {self.label!r}")}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "IntegerSet":
        ctx = " in set JSON"
        check_keys(doc, ("elements",), context=ctx)
        elements = read_json(doc, "elements", json_distinct_ints, "a list of distinct integers", ctx)
        return cls.from_iterable(elements, read_json(doc, "label", json_str, "a string", ctx) if "label" in doc else "")

    def to_lines(self) -> str:
        """One decimal integer per line, for interop with other tools."""
        return decimal_lines(self.elements, f"set {self.label!r}")

    @classmethod
    def from_lines(cls, text: str, label: str = "") -> "IntegerSet":
        """The whitespace-separated integers of `text`; an entry that is not one
        is refused naming its position."""
        values = []
        for i, entry in enumerate(text.split(), 1):
            try:
                values.append(int(entry))
            except ValueError:
                most = sys.get_int_max_str_digits()
                raise ValueError(f"entry {i}, {reprlib.repr(entry)}, is not an integer of up to {most} digits") from None
        return cls.from_iterable(values, label)


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

    if sum(abs(c) * k_max**i for i, c in enumerate(coeffs)) < INT64_SAFE:
        # Horner's step i holds sum_{j>=i} c_j k^(j-i), within this bound in size
        ks = np.arange(1, k_max + 1, dtype=np.int64)
        values = np.zeros(k_max, dtype=np.int64)
        for c in reversed(coeffs):
            values *= ks
            values += c
    else:

        def _eval(k: int) -> int:
            acc = 0
            for c in reversed(coeffs):
                acc = acc * k + c
            return acc

        values = [_eval(k) for k in range(1, k_max + 1)]
    distinct = _abs_sorted(values)
    collapsed = k_max - len(distinct)
    if collapsed:
        warnings.warn(f"{collapsed} duplicate polynomial values collapsed", stacklevel=2)
    label = "P(" + ",".join(str(c) for c in coeffs) + f")[1..{k_max}]"
    return IntegerSet._part(distinct, label)


def generate_primes(limit: int) -> IntegerSet:
    """All primes <= limit by a sieve of Eratosthenes over the odd numbers, a
    numpy bool array whose index i stands for 2i + 3: each odd prime p strikes
    p^2, p^2 + 2p, ... in one slice. The set holds Python ints. Empty below 2."""
    label = f"primes<={limit}"
    if limit < 3:
        return IntegerSet._part((2,) if limit == 2 else (), label)
    sieve = np.ones((limit - 1) // 2, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if sieve[(p - 3) // 2]:
            sieve[(p * p - 3) // 2 :: p] = False
    return IntegerSet._part((2, *(2 * np.flatnonzero(sieve) + 3).tolist()), label)


def generate_geometric(base: int, k_max: int) -> IntegerSet:
    """{base^1, ..., base^k_max}, exact at any size."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if k_max < 1:
        raise ValueError("k_max must be positive")
    return IntegerSet._part(tuple(accumulate(repeat(base, k_max), operator.mul)), f"{base}^k[1..{k_max}]")


def generate_sumset(base: IntegerSet, j: int) -> IntegerSet:
    """All sums of j distinct elements of a strictly positive base set."""
    if j < 1:
        raise ValueError("j must be positive")
    if j > len(base):
        raise ValueError(f"j={j} exceeds base size {len(base)}")
    if base.elements and min(base.elements) <= 0:
        raise ValueError("sumset base must be strictly positive")
    sums = {sum(combo) for combo in combinations(base.elements, j)}
    return IntegerSet.from_iterable(sums, f"{base.label or 'base'}+^{j}")


def generate_integers(n_max: int) -> IntegerSet:
    """{1, ..., n_max}: the reference equidistributed sequence."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return IntegerSet._part(tuple(range(1, n_max + 1)), f"1..{n_max}")


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

    def to_json_dict(self) -> dict:
        doc = fields_json_dict(self)
        doc["fit_range"] = decimal_strs(self.fit_range, "growth report fit_range")
        return doc


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
    )
