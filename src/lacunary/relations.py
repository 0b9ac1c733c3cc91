"""Arithmetic relation sets, s-independence checking, and representation
counting.

A relation of length m is an ordered tuple of nonzero integers summing to 0
with total weight sum(|z_i|) <= 2s; lengths run from 3 to 2s (length 2 is the
identity relation and is excluded). A set is s-independent when no relation
vanishes on any tuple of distinct elements, that is when its s-multiset sums
are distinct: a relation's sides, padded to size s by one element, collide,
and two colliding multisets less their common part are a relation. All
arithmetic is exact. Distinct sums mod the prime P decide a set whose
C(n + s - 1, s) sums fit MITM_MEMORY_BUDGET, and when they collide, the
colliding multisets hold every relation on the set, so they name the witness
the kernel below would find, or raise its refusal.

A dense set (the square of its ordered colliding pairs exceeds its sums), or
one past that budget, goes to the kernel, which searches for the witness: it
joins inner index tuples to a walk over outer ones on residues mod P, counts
each target's matches from a run-end array over the sorted inner sums, and
verifies each match exactly. Both are built in chunks of the lexicographic
product table, cut to distinct indices, so MITM_MEMORY_BUDGET, counting kept
rows, bounds a search's memory. A witness is the first under one of two
orders: the lexicographic order on the whole tuple while perm(n, m - 1) <=
DFS_BUDGET (and for int64 sets at m = 3), else meet in the middle at a split
h within one MITM_MEMORY_BUDGET and MITM_TIME_BUDGET; a larger search is refused.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb, perm
from typing import Iterable, Sequence

import numpy as np

from ._util import Doc, decimal_strs
from .integer_sets import INT64_SAFE, IntegerSet

DEFAULT_S_MAX = 4

# search budgets, in enumerated tuples; chosen so the worst case stays in the
# low tens of seconds on a desktop
DFS_BUDGET = 2_000_000
MITM_MEMORY_BUDGET = 8_000_000
MITM_TIME_BUDGET = 20_000_000

# witness searches match residues mod this prime: 3 is a primitive root and 2
# has order (P - 1) / 2 (mod 2^61 - 1, powers of 2 repeat with period 61)
P = (1 << 63) - 25
_ROWS = 1 << 14  # product rows per chunk of either table, and in each cached first chunk
_BATCH = 1 << 14  # candidate pairs expanded at once


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
    """The orbit representatives under coordinate permutation, each a sorted
    tuple no greater than its negation sorted: one of each pair under -1, in
    order of length."""
    reps = (rel.coefficients for rel in enumerate_relations(s).representatives())
    return tuple(c for c in reps if sorted(c) <= sorted(-x for x in c))


@dataclass(frozen=True)
class IndependenceReport(Doc):
    independent: bool
    s: int
    witness_relation: tuple[int, ...] | None = None
    witness_elements: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not self.independent == (self.witness_relation is None) == (self.witness_elements is None):
            raise ValueError("witness present iff dependent")
        if self.witness_relation is not None:
            if sum(c * q for c, q in zip(self.witness_relation, self.witness_elements)) != 0:
                raise ValueError("witness does not vanish")
            if len(set(self.witness_elements)) != len(self.witness_elements):
                raise ValueError("witness elements must be distinct")

    def to_json_dict(self) -> dict:
        doc: dict = {"independent": self.independent, "s": self.s}
        if not self.independent:
            doc["witness_relation"] = list(self.witness_relation)  # type: ignore[arg-type]
            doc["witness_elements"] = decimal_strs(self.witness_elements, f"{self.s}-independence witness")
        return doc


def _tuples(n: int, cs: tuple[int, ...], start: int, stop: int) -> np.ndarray:
    """Rows start..stop-1 of the lexicographic product table of len(cs)-tuples of
    indices below n (int32) with distinct indices, rising along runs of equal
    coefficients: the sorted run has the same sum and index set and comes first."""
    out = np.stack(np.unravel_index(np.arange(start, stop), (n,) * len(cs)), axis=1, dtype=np.int32)
    keep = [out[:, i] != out[:, j] for j in range(len(cs)) for i in range(j)]
    keep += [out[:, j - 1] < out[:, j] for j in range(1, len(cs)) if cs[j] == cs[j - 1]]
    return out[np.logical_and.reduce(keep)] if keep else out


@lru_cache(maxsize=128)
def _first_tuples(n: int, cs: tuple[int, ...]) -> np.ndarray:
    """The first _ROWS rows of the (n, cs) table, kept (read-only) for the next set."""
    out = _tuples(n, cs, 0, min(n ** len(cs), _ROWS))
    out.setflags(write=False)
    return out


def _chunks(n: int, cs: tuple[int, ...]):
    """The kept rows of the (n, cs) table, _ROWS product rows at a time; the first chunk is cached."""
    yield _first_tuples(n, cs)
    for start in range(_ROWS, n ** len(cs), _ROWS):
        yield _tuples(n, cs, start, min(start + _ROWS, n ** len(cs)))


def _sums(res: dict[int, np.ndarray], coeffs: tuple[int, ...], idx: np.ndarray) -> np.ndarray:
    """sum_j c_j * q[idx[:, j]] mod P: each sum of two residues fits uint64,
    and min(t, t - P) takes P off exactly when t >= P."""
    total = res[coeffs[0]][idx[:, 0]]
    for c, col in zip(coeffs[1:], idx.T[1:]):
        total += res[c][col]
        np.minimum(total, total - P, out=total)
    return total


@lru_cache(maxsize=128)
def _multisets(n: int, s: int) -> np.ndarray:
    """Index rows i_1 <= ... <= i_s below n (int32, read-only), one per s-multiset, in lexicographic order."""
    idx = np.arange(n, dtype=np.int32)[:, None]
    for _ in range(s - 1):  # each row goes on with every index from its last one up
        cnt = n - idx[:, -1]  # row r repeats cnt[r] times; its run ends at cnt.cumsum()[r], on index n - 1
        new = np.arange(cnt.sum(), dtype=np.int32) - np.repeat(cnt.cumsum(dtype=np.int32) - n, cnt)
        idx = np.column_stack((np.repeat(idx, cnt, axis=0), new))
    idx.setflags(write=False)
    return idx


class _Residues(dict):
    """c * q mod P for every element q, per coefficient c, built on first use."""

    def __init__(self, elems: Sequence[int]):
        self.elems = elems

    def __missing__(self, c: int) -> np.ndarray:
        self[c] = np.array([c * q % P for q in self.elems], dtype=np.uint64)
        return self[c]


def _first_exact(coeffs: tuple[int, ...], elems: Sequence[int], idx: np.ndarray) -> tuple[int, ...] | None:
    """The first row of index tuples whose elements vanish in exact arithmetic."""
    for row in idx.tolist():
        witness = tuple(elems[t] for t in row)
        if sum(c * q for c, q in zip(coeffs, witness)) == 0:
            return witness
    return None


def _join(coeffs: tuple[int, ...], elems: Sequence[int], h: int, lex: bool, res=None) -> tuple[int, ...] | None:
    """The first vanishing tuple of m <= len(elems) distinct elements under the
    key (outer indices, inner indices): outer positions are [0, h) when `lex`
    (0 <= h < m: the lexicographic order), else [h, m) (0 < h < m). Both tables
    are walked _ROWS product rows at a time; only kept inner rows, which the
    memory budget counts, outlive a chunk. Inner sums are sorted stably, with
    an int32 run end per row, so a target found at its run's first row counts
    its matches by one lookup; matches of each outer chunk are expanded in
    batches, cleared of shared indices and verified exactly (a relation
    vanishes mod P; a match may not)."""
    outer_c, inner_c = (coeffs[:h], coeffs[h:]) if lex else (coeffs[h:], coeffs[:h])
    n, res = len(elems), _Residues(elems) if res is None else res
    parts = list(_chunks(n, inner_c))
    inner = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts  # else the chunks would hold the kept rows twice
    sums = _sums(res, inner_c, inner)
    if not outer_c:  # the one target is 0, and the table is in order
        return _first_exact(coeffs, elems, inner[(sums == 0).nonzero()[0]])
    order = sums.argsort(kind="stable")
    sums, neg = sums[order], tuple(-c for c in outer_c)
    # one past the run of equal sums through each row: a row inside a run
    # takes the run's last row + 1 by a running minimum from the end
    run_end = np.arange(1, len(sums) + 1, dtype=np.int32)
    run_end[:-1][sums[1:] == sums[:-1]] = len(sums)
    np.minimum.accumulate(run_end[::-1], out=run_end[::-1])
    for outer in _chunks(n, neg):
        target = _sums(res, neg, outer)
        lo = sums.searchsorted(target)
        rows = (sums[np.minimum(lo, len(sums) - 1)] == target).nonzero()[0]
        lo = lo[rows]
        cnt = run_end[lo] - lo
        ends, matches = cnt.cumsum(), int(cnt.sum())
        for first in range(0, matches, _BATCH):
            f = np.arange(first, min(first + _BATCH, matches))
            r = ends.searchsorted(f, side="right")
            o, i = outer[rows[r]], inner[order[lo[r] + f - (ends[r] - cnt[r])]]
            apart = np.logical_and.reduce([a != b for a in o.T for b in i.T])
            witness = _first_exact(coeffs, elems, np.hstack((o, i) if lex else (i, o))[apart])
            if witness is not None:
                return witness
    return None


def _dfs_witness(coeffs: tuple[int, ...], elems: Sequence[int], res=None) -> tuple[int, ...] | None:
    """First witness in the lexicographic order; any split gives it, so the
    inner table takes the most positions that fit _ROWS."""
    n, m = len(elems), len(coeffs)
    h = next((h for h in range(m) if n ** (m - h) <= _ROWS), m - 1)
    return _join(coeffs, elems, h, True, res)


def _mitm_witness(coeffs: tuple[int, ...], elems: Sequence[int], h: int, res=None) -> tuple[int, ...] | None:
    """First witness under the key (positions h.., positions ..h): meet in the middle."""
    return _join(coeffs, elems, h, False, res)


def _split(coeffs: tuple[int, ...], E: IntegerSet) -> int:
    """The kernel's order for coeffs on E (|E| >= m): the key of a tuple is
    (positions h.., positions ..h), where h = 0 is the lexicographic order and
    h > 0 meet in the middle at split h; a search past the budgets is refused."""
    n, m = len(E.elements), len(coeffs)
    # int64 sets keep the lexicographic order at m = 3 past DFS_BUDGET; being
    # int64-safe only picks the order, since the kernel is exact on any set
    if perm(n, m - 1) <= DFS_BUDGET or (m == 3 and E.max_abs * 2 * sum(map(abs, coeffs)) < INT64_SAFE):
        return 0
    h = max([h for h in range(2, m // 2 + 1) if perm(n, h) <= MITM_MEMORY_BUDGET], default=1)
    if perm(n, h) <= MITM_MEMORY_BUDGET and perm(n, m - h) <= MITM_TIME_BUDGET:
        return h
    raise ValueError(
        f"independence search too large: |E|={n}, relation length {m} "
        f"(enumeration {perm(n, m - 1)} tuples exceeds budgets)"
    )


def _find_witness(coeffs: tuple[int, ...], E: IntegerSet, res: _Residues) -> tuple[int, ...] | None:
    if len(E) < len(coeffs):
        return None
    h = _split(coeffs, E)
    return _mitm_witness(coeffs, E.elements, h, res) if h else _dfs_witness(coeffs, E.elements, res)


def _dense(same: np.ndarray, repeats: int, rows: int) -> bool:
    """_collision_report's dense rule on `rows` sorted sums whose adjacent
    entries are equal where `same` holds, `repeats` times: the square of the
    ordered pairs of equal sums, g(g - 1) for a run of g, exceeds `rows`.
    The pairs lie between 2 repeats (runs of two) and repeats (repeats + 1)
    (one run), so only between those bounds are the runs walked, over the
    positions of the repeats: a run of g is g - 1 consecutive ones."""
    if (2 * repeats) ** 2 > rows or (repeats * (repeats + 1)) ** 2 <= rows:
        return (2 * repeats) ** 2 > rows
    pairs = run = 0
    pos = np.flatnonzero(same).tolist()
    for a, b in zip(pos, pos[1:] + [None]):
        run += 1
        if b != a + 1:
            pairs, run = pairs + run * (run + 1), 0
    return pairs**2 > rows


def _collision_report(
    E: IntegerSet, s: int, reps: tuple[tuple[int, ...], ...], rows: int, hits: np.ndarray
) -> IndependenceReport | None:
    """The kernel's report, named from `hits`, the s-multiset index rows whose
    residue sums collide; None for a dense set, where the square of the
    ordered pairs of rows with equal sums exceeds its `rows` sums: each pair
    costs interpreted work here, which past that point outgrows the numpy
    work of the sums, and there the kernel finds its witness early.

    Two rows with equal exact sums, less their common part, are a relation,
    kept as its sorted (coefficient, index) pairs, and every relation is such
    a pair of rows (module docstring). The reps go in the kernel's turn, so a
    refusal raises where the kernel's would, and the first rep with a
    relation, or a negated one, names the least key among their placements:
    in key order each position takes its coefficient's least index left, which
    gives the least key, rising along each run of equal coefficients on either
    side of the split as the kernel's tables do."""
    elems, by_sum = E.elements, defaultdict(list)
    for row in hits.tolist():  # by exact sum, which parts spurious collisions
        by_sum[sum([elems[i] for i in row])].append(row)
    if sum([len(g) * (len(g) - 1) for g in by_sum.values()]) ** 2 > rows:
        return None
    shapes = defaultdict(set)  # relations under their sorted coefficients
    for g in by_sum.values():
        for a, b in combinations(g, 2):
            rel = tuple(sorted([(c, i) for i in {*a, *b} if (c := a.count(i) - b.count(i))]))
            shapes[tuple([c for c, _ in rel])].add(rel)
    for coeffs in reps:
        if len(E) >= (m := len(coeffs)):
            h = _split(coeffs, E)
            negated = shapes.get(tuple([-c for c in reversed(coeffs)]), ())
            if rels := shapes.get(coeffs, set()) | {tuple(sorted([(-c, i) for c, i in rel])) for rel in negated}:
                key_c = coeffs[h:] + coeffs[:h]
                slot = sorted(range(m), key=key_c.__getitem__)  # key position of each sorted pair
                pair = sorted(range(m), key=slot.__getitem__)  # sorted pair at each key position
                key = min([tuple([rel[k][1] for k in pair]) for rel in rels])
                witness = tuple([elems[i] for i in key[m - h :] + key[: m - h]])
                return IndependenceReport(independent=False, s=s, witness_relation=coeffs, witness_elements=witness)
    return IndependenceReport(independent=True, s=s)


def is_s_independent(E: IntegerSet | Sequence[int], s: int) -> IndependenceReport:
    """Decide s-independence; on failure return the first witness found under
    a fixed canonical enumeration order (deterministic, thread-free). Sets
    whose s-multiset sums fit MITM_MEMORY_BUDGET are decided by those sums and,
    unless dense, take their witness from the colliding ones; the rest run the
    witness search (module docstring). Either way the report, or the refusal,
    is the search's.

    s=1 is vacuously independent (no relations exist), as are sets with
    fewer than 3 elements.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if not isinstance(E, IntegerSet):
        E = IntegerSet.from_iterable(E)
    n = len(E)
    if s == 1 or n < 3:
        return IndependenceReport(independent=True, s=s)
    reps, res, rows = _search_reps(s), _Residues(E.elements), comb(n + s - 1, s)  # _search_reps checks the s cap
    if rows <= MITM_MEMORY_BUDGET:  # distinct s-multiset sums: independent (module docstring)
        table = (_multisets if rows <= _ROWS else _multisets.__wrapped__)(n, s)
        raw = _sums(res, (1,) * s, table)
        sums = np.sort(raw)
        same = sums[1:] == sums[:-1]
        if not (repeats := np.count_nonzero(same)):
            return IndependenceReport(independent=True, s=s)
        # while 2s max|n| < P equal residues are equal sums, so a set past the dense rule
        # by its residue runs skips the grouping
        if 2 * s * E.max_abs >= P or not _dense(same, repeats, rows):
            dup = sums[1:][same]  # the repeated residue sums, rising; a row holding one collides
            hits = table[dup[np.minimum(dup.searchsorted(raw), len(dup) - 1)] == raw]
            if (report := _collision_report(E, s, reps, rows, hits)) is not None:
                return report
    for coeffs in reps:
        witness = _find_witness(coeffs, E, res)
        if witness is not None:
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
        name = f"{self.s}-fold representation counts"
        totals = sorted(self.counts)
        return {
            "s": self.s,
            "moment": decimal_strs([self.moment], f"{name} moment")[0],
            "counts": dict(zip(decimal_strs(totals, f"{name} totals"), [self.counts[n] for n in totals])),
        }


def count_representations(E: IntegerSet, s: int) -> RepresentationCounts:
    """Exact s-fold representation counts for a nonnegative set."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if len(E) == 0:
        return RepresentationCounts(s=s, counts={}, moment=0)
    if min(E.elements) < 0:
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
