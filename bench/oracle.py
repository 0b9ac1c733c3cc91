"""Reference computations the benchmark checks the program against.

Nothing here imports the package. Selection is recomputed from the
splitmix64 rule the selector documents (word for (seed, i) below the exact
threshold ceil(delta * 2^64)); s = 2 dependence is decided from pair sums;
character sums are evaluated from residues taken here.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TRIAL_DOMAIN = 0xA0761D6478BD642F

# A grid sup certificate says: the sup over the grid is a value of |p|, and
# the true sup is at most 5 times it.
GRID_FACTOR = 5.0
# Character sums are exact in phase up to one rounding per term.
WEYL_TOL = 1e-9


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def words(seed: int, count: int) -> np.ndarray:
    """splitmix64 words for counters 1..count under `seed`."""
    z = np.uint64(seed & MASK64) + np.uint64(_GOLDEN) * np.arange(1, count + 1, dtype=np.uint64)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


def trial_seed(seed: int, trial: int) -> int:
    return (seed ^ int(words(_TRIAL_DOMAIN, trial + 1)[trial])) & MASK64


def thresholds(densities: Sequence[Fraction]) -> tuple[np.ndarray, np.ndarray]:
    """Per element, ceil(delta * 2^64) - 1 as uint64 and whether delta > 0."""
    thr = [-(-(d.numerator << 64) // d.denominator) for d in densities]
    below = np.array([(t - 1) & MASK64 for t in thr], dtype=np.uint64)
    return below, np.array([t > 0 for t in thr])


def selection_mask(seed: int, thr: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Element i is kept when its word is below ceil(delta_i * 2^64)."""
    below, positive = thr
    return positive & (words(seed, len(below)) <= below)


def primes_upto(limit: int) -> np.ndarray:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def _canon(pairs: Iterable[tuple[int, int]]) -> tuple:
    """A relation instance as sorted (element, coefficient) pairs, up to sign."""
    pos = tuple(sorted(pairs))
    neg = tuple(sorted((q, -c) for q, c in pos))
    return min(pos, neg)


def s2_instances(elements: Iterable[int]) -> set[tuple]:
    """Every vanishing s = 2 relation on distinct elements: a + b = 2c and
    a + b = c + d. Those are all relations of weight at most 4."""
    elems = sorted(set(elements))
    members = set(elems)
    found: set[tuple] = set()
    pair_sums: dict[int, list[tuple[int, int]]] = {}
    for i, a in enumerate(elems):
        for b in elems[i + 1 :]:
            t = a + b
            if t % 2 == 0 and t // 2 in members:
                found.add(_canon(((a, 1), (b, 1), (t // 2, -2))))
            for c, d in pair_sums.get(t, ()):
                found.add(_canon(((a, 1), (b, 1), (c, -1), (d, -1))))
            pair_sums.setdefault(t, []).append((a, b))
    return found


def witness_problem(report, s: int, members: set[int]) -> str | None:
    """Why a reported witness is not a vanishing relation of weight <= 2s on
    distinct members, or None."""
    coeffs = tuple(report.witness_relation)
    elems = tuple(report.witness_elements)
    if not 3 <= len(coeffs) <= 2 * s or len(coeffs) != len(elems):
        return f"witness length {len(coeffs)} outside 3..{2 * s}"
    if 0 in coeffs or sum(coeffs) != 0 or sum(abs(c) for c in coeffs) > 2 * s:
        return f"witness coefficients {coeffs} are not a relation for s={s}"
    if len(set(elems)) != len(elems) or not set(elems) <= members:
        return "witness elements are not distinct members of the set"
    if sum(c * q for c, q in zip(coeffs, elems)) != 0:
        return "witness does not vanish"
    return None


def witness_key(report) -> tuple:
    return _canon(zip(report.witness_elements, report.witness_relation))


def _phases(elements: Sequence[int], point: tuple) -> np.ndarray:
    """n * t mod 1 for a point ("rational", a, q) or ("angle", num, e) with
    t = num / 2^e, e <= 64, from residues of n taken here."""
    small = all(abs(n) < (1 << 62) for n in (elements[0], elements[-1]))
    if point[0] == "rational":
        _, a, q = point
        res = (np.array(elements, dtype=np.int64) % q) if small else np.array([n % q for n in elements], dtype=np.int64)
        return ((res * a) % q) / q
    _, num, e = point
    if e > 64:
        raise ValueError("angle oracle needs t = num / 2^e with e <= 64")
    low = (np.array(elements, dtype=np.int64).astype(np.uint64)) if small else np.array([n & MASK64 for n in elements], dtype=np.uint64)
    r = (low * np.uint64(num)) & np.uint64((1 << e) - 1) if e < 64 else low * np.uint64(num)
    return r.astype(np.float64) / float(1 << e)


def point_spec(text: str) -> tuple:
    """'a/q' as ("rational", a, q) in lowest terms with 0 <= a < q; a decimal
    fraction of a turn t in [0, 1) as ("angle", num, e) with t = num / 2^e."""
    if "/" in text:
        a, q = (int(x) for x in text.split("/"))
        g = math.gcd(a % q, q)
        return ("rational", (a % q) // g, q // g)
    num, den = (float(text) % 1.0).as_integer_ratio()
    return ("angle", num, den.bit_length() - 1)


def running_means(elements: Sequence[int], ks: Sequence[int], points: Sequence[str]) -> list[list[complex]]:
    """(1/k) * sum of e(n t) over the first k elements, [k index][point index]."""
    prefix = elements[: max(ks)]
    sums = [np.cumsum(np.exp(2j * np.pi * _phases(prefix, point_spec(p)))) for p in points]
    return [[complex(cs[k - 1]) / k for cs in sums] for k in ks]


def grid_sup(freqs: np.ndarray, coeffs: np.ndarray, cap: int) -> float:
    """max |p| on the min(4N, cap) roots of unity, N the top frequency."""
    keep = coeffs != 0
    freqs, coeffs = freqs[keep], coeffs[keep]
    size = min(4 * int(np.max(np.abs(freqs))), cap)
    grid = np.zeros(size, dtype=complex)
    np.add.at(grid, freqs % size, coeffs)
    return float(np.max(np.abs(np.fft.ifft(grid) * size)))


def psi_sup(elements: np.ndarray, mask: np.ndarray, densities: np.ndarray, sigma: Fraction, k: int, cap: int) -> float:
    """Grid sup of the selected-prefix mean minus the density-weighted mean
    over the first k elements; sigma is the exact sum of their densities."""
    sel = mask[:k]
    coeffs = np.where(sel, 1.0 / int(sel.sum()), 0.0) - densities[:k] / float(sigma)
    return grid_sup(elements[:k], coeffs, cap)


def within_grid_guarantee(value: float, reference: float) -> bool:
    """Two grid sups of one polynomial bound the same true sup T: each is at
    most T and, certified, at least T / 5. So each is within 5x the other."""
    eps = 1e-9 * max(value, reference)
    return reference <= GRID_FACTOR * value + eps and value <= GRID_FACTOR * reference + eps
