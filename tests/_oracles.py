"""Independent brute-force oracles the library code never touches."""

from __future__ import annotations

import cmath
import math
from collections import defaultdict
from itertools import compress, permutations, product
from math import perm
from typing import Iterator

import numpy as np


def brute_force_relations(s: int, m: int) -> list[tuple[int, ...]]:
    """Every ordered m-tuple of nonzero coefficients in [-2s, 2s] with zero
    sum and weight at most 2s, by raw product enumeration."""
    nonzero = [c for c in range(-2 * s, 2 * s + 1) if c != 0]
    out = []
    for tup in product(nonzero, repeat=m):
        if sum(tup) == 0 and sum(abs(c) for c in tup) <= 2 * s:
            out.append(tup)
    return out


def brute_force_relation_count(s: int) -> int:
    return sum(len(brute_force_relations(s, m)) for m in range(3, 2 * s + 1))


def naive_s_independent(elements, relations_by_m) -> bool:
    """Test every relation against every ordered tuple of distinct elements."""
    elems = tuple(elements)
    for m, rels in relations_by_m.items():
        if m > len(elems):
            continue
        for tup in permutations(elems, m):
            for rel in rels:
                total = 0
                for c, q in zip(rel, tup):
                    total += c * q
                if total == 0:
                    return False
    return True


def relations_grouped(s: int) -> dict[int, list[tuple[int, ...]]]:
    return {m: brute_force_relations(s, m) for m in range(3, 2 * s + 1)}


def is_prime_trial_division(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def bytearray_sieve_primes(limit: int) -> tuple[int, ...]:
    """All primes <= limit by the bytearray sieve of Eratosthenes that
    generate_primes used before its numpy sieve."""
    if limit < 2:
        return ()
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = bytearray(len(range(start, limit + 1, p)))
    return tuple(compress(range(limit + 1), sieve))


def direct_sup_on_grid(spectrum: dict[int, complex], grid_size: int) -> float:
    """Evaluate |f| on the grid by direct character summation (no FFT)."""
    best = 0.0
    for r in range(grid_size):
        val = 0j
        for n, c in spectrum.items():
            val += c * cmath.exp(2j * math.pi * ((n * r) % grid_size) / grid_size)
        best = max(best, abs(val))
    return best


def direct_sup_on_grid_vectorized(spectrum: dict[int, complex], grid_size: int) -> float:
    """Same direct evaluation, vectorized for larger grids (still no FFT)."""
    import numpy as np

    freqs = np.array([n % grid_size for n in spectrum], dtype=np.int64)
    coeffs = np.array(list(spectrum.values()), dtype=complex)
    r = np.arange(grid_size, dtype=np.int64)
    phases = (freqs[:, None] * r[None, :]) % grid_size
    vals = (coeffs[:, None] * np.exp(2j * np.pi * phases / grid_size)).sum(axis=0)
    return float(np.max(np.abs(vals)))


# -- the witness searches as they stood before the residue-join kernel ---------
#
# The functions below are the interpreted and numpy searches and the gate
# that chose between them, kept verbatim as the reference for the witness
# each input must still get. Budgets and INT64_SAFE are copied by value.

INT64_SAFE = 1 << 62
DFS_BUDGET = 2_000_000
MITM_MEMORY_BUDGET = 2_000_000
MITM_TIME_BUDGET = 20_000_000


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


def reference_independence(E, s: int, reps):
    """(independent, witness relation, witness elements) as the gate above
    reported them for an IntegerSet E, searching the relation representatives
    `reps` in turn; a refused search raises its ValueError."""
    if s == 1 or len(E) < 3:
        return True, None, None
    for coeffs in reps:
        witness = _find_witness(coeffs, E)
        if witness is not None:
            return False, coeffs, witness
    return True, None, None
