"""Arithmetic relation sets, s-independence checking, and representation
counting.

A relation of length m is an ordered tuple of nonzero integers summing to 0
with total weight sum(|z_i|) <= 2s; lengths run from 3 to 2s (length 2 is the
identity relation and is excluded). A set is s-independent when no relation
vanishes on any tuple of distinct elements. All arithmetic is exact. The
search is brute force while perm(n, m - 1) <= DFS_BUDGET, numpy for int64 sets
at m = 3, 4, then meet in the middle; a witness is the first in its order.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from math import comb, perm
from typing import Iterable, Iterator, Sequence

import numpy as np

from .integer_sets import INT64_SAFE, IntegerSet

DEFAULT_S_MAX = 4

# search budgets, in enumerated tuples; chosen so the worst case stays in the
# low tens of seconds on a desktop
DFS_BUDGET = 2_000_000
MITM_MEMORY_BUDGET = 2_000_000
MITM_TIME_BUDGET = 20_000_000


class RelationExplosionError(ValueError):
    """Raised when s exceeds the configured cap; carries the size bound."""

    def __init__(self, s: int, s_max: int, bound: int):
        self.s = s
        self.s_max = s_max
        self.bound = bound
        super().__init__(
            f"relation explosion: s={s} exceeds s_max={s_max} "
            f"(ordered relation count would be bounded by {bound})"
        )


@dataclass(frozen=True)
class Relation:
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(int(c) for c in self.coefficients)
        if any(c == 0 for c in coeffs):
            raise ValueError("relation coefficients must be nonzero")
        if sum(coeffs) != 0:
            raise ValueError("relation coefficients must sum to zero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def m(self) -> int:
        return len(self.coefficients)

    @property
    def weight(self) -> int:
        return sum(abs(c) for c in self.coefficients)


@dataclass(frozen=True)
class RelationSet:
    s: int
    by_m: dict[int, tuple[Relation, ...]]

    @property
    def count(self) -> int:
        return sum(len(rels) for rels in self.by_m.values())

    def all_relations(self) -> Iterable[Relation]:
        for m in sorted(self.by_m):
            yield from self.by_m[m]

    def representatives(self) -> tuple[Relation, ...]:
        """One relation per orbit under coordinate permutation (reporting
        convenience; the count C(s) always refers to the full ordered set)."""
        seen: dict[tuple[int, ...], Relation] = {}
        for rel in self.all_relations():
            key = tuple(sorted(rel.coefficients))
            seen.setdefault(key, rel)
        return tuple(sorted(seen.values(), key=lambda r: (r.m, r.coefficients)))

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "count": self.count,
            "relations": [list(r.coefficients) for r in self.all_relations()],
        }


def _count_bound(s: int) -> int:
    # compositions of weight <= 2s into m positive parts, times sign patterns
    return sum((1 << m) * comb(2 * s, m) for m in range(3, 2 * s + 1))


def _extend(prefix: list[int], abs_used: int, total: int, m: int, budget: int, out: list[tuple[int, ...]]) -> None:
    if len(prefix) == m - 1:
        last = -total
        if last != 0 and abs_used + abs(last) <= budget:
            out.append(tuple(prefix) + (last,))
        return
    remaining = m - len(prefix) - 1  # positions after this one, each costs >= 1
    available = budget - abs_used - remaining
    for c in range(-available, available + 1):
        if c == 0:
            continue
        prefix.append(c)
        _extend(prefix, abs_used + abs(c), total + c, m, budget, out)
        prefix.pop()


def enumerate_relations(s: int) -> RelationSet:
    """All ordered relations of lengths 3..2s with weight <= 2s, for s up to
    DEFAULT_S_MAX.

    s=1 yields the empty set (only identity relations fit in weight 2).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if s > DEFAULT_S_MAX:
        raise RelationExplosionError(s, DEFAULT_S_MAX, _count_bound(s))
    by_m: dict[int, tuple[Relation, ...]] = {}
    for m in range(3, 2 * s + 1):
        found: list[tuple[int, ...]] = []
        _extend([], 0, 0, m, 2 * s, found)
        by_m[m] = tuple(Relation(t) for t in sorted(found))
    return RelationSet(s=s, by_m=by_m)


@lru_cache(maxsize=16)
def relation_count(s: int) -> int:
    """C(s): the exact ordered relation count used in the probability bound."""
    return enumerate_relations(s).count


def dependence_probability_bound(s: int, ell: int, set_size: int) -> float:
    """C(s) * ell^(2s) / set_size; may exceed 1, in which case it is vacuous."""
    if s < 2:
        raise ValueError("bound requires s >= 2")
    if set_size < 1:
        raise ValueError("set_size must be positive")
    if not 0 <= ell <= set_size:
        raise ValueError("ell must satisfy 0 <= ell <= set_size")
    return relation_count(s) * ell ** (2 * s) / set_size


@lru_cache(maxsize=16)
def _search_reps(s: int) -> tuple[tuple[int, ...], ...]:
    """Relation representatives deduplicated under coordinate permutation and
    global negation; each representative is itself a member of the full set."""
    seen: dict[tuple[int, ...], tuple[int, ...]] = {}
    for rel in enumerate_relations(s).all_relations():
        coeffs = rel.coefficients
        key = min(tuple(sorted(coeffs)), tuple(sorted(-c for c in coeffs)))
        if key not in seen:
            seen[key] = coeffs
    return tuple(sorted(seen.values(), key=lambda c: (len(c), c)))


@dataclass(frozen=True)
class IndependenceReport:
    independent: bool
    s: int
    witness_relation: tuple[int, ...] | None = None
    witness_elements: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.independent != (self.witness_relation is None):
            raise ValueError("witness present iff dependent")
        if self.witness_relation is not None:
            assert self.witness_elements is not None
            if sum(c * q for c, q in zip(self.witness_relation, self.witness_elements)) != 0:
                raise ValueError("witness does not vanish")
            if len(set(self.witness_elements)) != len(self.witness_elements):
                raise ValueError("witness elements must be distinct")

    def to_json_dict(self) -> dict:
        doc: dict = {"independent": self.independent, "s": self.s}
        if not self.independent:
            doc["witness_relation"] = list(self.witness_relation)  # type: ignore[arg-type]
            doc["witness_elements"] = [str(q) for q in self.witness_elements]  # type: ignore[union-attr]
        return doc

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def _distinct_tuples(coeffs: tuple[int, ...], elems: tuple[int, ...]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield (sum c_i * q_i, (q_0, ...)) over tuples of distinct elements, one
    per coefficient, in element order with the last position varying fastest."""
    *head, c_last = coeffs
    for prefix in permutations(elems, len(head)):
        base = sum(c * q for c, q in zip(head, prefix))
        for q in elems:
            if q not in prefix:
                yield base + c_last * q, prefix + (q,)


def _dfs_witness(coeffs: tuple[int, ...], elems: tuple[int, ...], members: frozenset) -> tuple[int, ...] | None:
    """Enumerate distinct tuples over all but the last position, solving the
    last coordinate exactly. First witness in element order."""
    last_c = coeffs[-1]
    for total, chosen in _distinct_tuples(coeffs[:-1], elems):
        q = -(total // last_c)
        if total % last_c == 0 and q in members and q not in chosen:
            return chosen + (q,)
    return None


def _mitm_witness(coeffs: tuple[int, ...], elems: tuple[int, ...], h: int) -> tuple[int, ...] | None:
    """Hash partial sums of the first h positions, then scan assignments of
    the remaining positions for an exactly cancelling, disjoint partner."""
    table: dict[int, list[tuple[int, ...]]] = defaultdict(list)
    for total, left in _distinct_tuples(coeffs[:h], elems):
        table[total].append(left)
    for total, right in _distinct_tuples(coeffs[h:], elems):
        for left in table.get(-total, ()):
            if not any(q in right for q in left):
                return left + right
    return None


def _numpy_witness_m3(coeffs: tuple[int, ...], elems: np.ndarray) -> tuple[int, ...] | None:
    c0, c1, c2 = coeffs
    arr = np.asarray(elems, dtype=np.int64)
    sorted_vals = np.sort(arr)
    n = len(arr)
    for q0 in arr:
        target = -c0 * q0 - c1 * arr
        ok = target % c2 == 0
        q2 = np.where(ok, target // c2, 0)
        idx = np.searchsorted(sorted_vals, q2)
        present = ok & (idx < n)
        present &= sorted_vals[np.minimum(idx, n - 1)] == q2
        valid = present & (arr != q0) & (q2 != q0) & (q2 != arr)
        hits = np.nonzero(valid)[0]
        if hits.size:
            j = int(hits[0])
            return (int(q0), int(arr[j]), int(q2[j]))
    return None


def _numpy_witness_m4(coeffs: tuple[int, ...], elems: np.ndarray) -> tuple[int, ...] | None:
    """Meet in the middle over coefficient halves with sorted pair sums."""
    c0, c1, c2, c3 = coeffs
    arr = np.asarray(elems, dtype=np.int64)
    n = len(arr)
    i = np.repeat(np.arange(n, dtype=np.int32), n)
    j = np.tile(np.arange(n, dtype=np.int32), n)
    keep = i != j
    i, j = i[keep], j[keep]
    sums_a = c0 * arr[i] + c1 * arr[j]
    order = np.argsort(sums_a, kind="stable")
    sorted_a = sums_a[order]
    targets = -(c2 * arr[i] + c3 * arr[j])
    lo = np.searchsorted(sorted_a, targets, side="left")
    hi = np.searchsorted(sorted_a, targets, side="right")
    for b in np.nonzero(lo < hi)[0]:
        kk, ll = int(i[b]), int(j[b])
        for pos in range(int(lo[b]), int(hi[b])):
            a_idx = int(order[pos])
            ii, jj = int(i[a_idx]), int(j[a_idx])
            if ii != kk and ii != ll and jj != kk and jj != ll:
                return tuple(int(arr[x]) for x in (ii, jj, kk, ll))
    return None


_NUMPY_M4_PAIR_BUDGET = 8_000_000


def _find_witness(coeffs: tuple[int, ...], E: IntegerSet) -> tuple[int, ...] | None:
    elems = E.elements
    n = len(elems)
    m = len(coeffs)
    if n < m:
        return None
    if perm(n, m - 1) <= DFS_BUDGET:
        return _dfs_witness(coeffs, elems, E.members)
    # an int64-safe search has max_abs < INT64_SAFE, so E.array is an int64 view
    int64_safe = E.max_abs * 2 * sum(abs(c) for c in coeffs) < INT64_SAFE
    if m == 3 and int64_safe:
        return _numpy_witness_m3(coeffs, E.array)
    if m == 4 and int64_safe and n * n <= _NUMPY_M4_PAIR_BUDGET:
        return _numpy_witness_m4(coeffs, E.array)
    h = m // 2
    while h > 1 and perm(n, h) > MITM_MEMORY_BUDGET:
        h -= 1
    if perm(n, h) <= MITM_MEMORY_BUDGET and perm(n, m - h) <= MITM_TIME_BUDGET:
        return _mitm_witness(coeffs, elems, h)
    raise ValueError(
        f"independence search too large: |E|={n}, relation length {m} "
        f"(enumeration {perm(n, m - 1)} tuples exceeds budgets)"
    )


def is_s_independent(E: IntegerSet | Sequence[int], s: int) -> IndependenceReport:
    """Decide s-independence; on failure return the first witness found under
    a fixed canonical enumeration order (deterministic, thread-free).

    s=1 is vacuously independent (no relations exist), as are sets with
    fewer than 3 elements.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if not isinstance(E, IntegerSet):
        E = IntegerSet.from_iterable(E)
    if s == 1 or len(E) < 3:
        return IndependenceReport(independent=True, s=s)
    for coeffs in _search_reps(s):
        witness = _find_witness(coeffs, E)
        if witness is not None:
            total = sum(c * q for c, q in zip(coeffs, witness))
            if total != 0:  # re-verify in exact arithmetic before reporting
                raise AssertionError("search returned a non-vanishing witness")
            return IndependenceReport(
                independent=False, s=s, witness_relation=coeffs, witness_elements=witness
            )
    return IndependenceReport(independent=True, s=s)


@dataclass(frozen=True)
class RepresentationCounts:
    """r_s(n): ordered s-tuples (repetition allowed) summing to n, plus the
    second moment M = sum r_s(n)^2, the 2s-th power of the L^2s norm of the
    characteristic trigonometric sum."""

    s: int
    counts: dict[int, int]
    moment: int

    def to_json_dict(self) -> dict:
        return {
            "s": self.s,
            "moment": str(self.moment),
            "counts": {str(n): r for n, r in sorted(self.counts.items())},
        }


def count_representations(E: IntegerSet, s: int) -> RepresentationCounts:
    """Exact s-fold representation counts for a nonnegative set."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(E) == 0:
        return RepresentationCounts(s=s, counts={}, moment=0)
    if E.elements[0] < 0:
        raise ValueError("count_representations requires nonnegative elements")
    counts: dict[int, int] = {n: 1 for n in E.elements}
    for _ in range(s - 1):
        nxt: dict[int, int] = defaultdict(int)
        for total, r in counts.items():
            for n in E.elements:
                nxt[total + n] += r
        counts = dict(nxt)
    moment = sum(r * r for r in counts.values())
    return RepresentationCounts(s=s, counts=counts, moment=moment)
