"""Weyl means, grid-certified sup norms, selection discrepancy, the
Bernstein tail bound, and summing-matrix regularity checks.

Circle points are exact rationals a/q of a full turn, whose characters come
from exact residues n*a mod q (through a table of the q values when q <= k;
where n*a may pass int64, the points of one call reduce the set once per
group of moduli), or float angles theta = num/2^b, whose phase n*num mod
2^b is exact before one float rounding, so huge frequencies lose no
accuracy. With b <= 64 the phases are, on any set, the low b bits of a
wrapping uint64 product; past 64 bits each n is cut to its low b bits
before a Python multiply.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from typing import Iterator, Mapping, Sequence

import numpy as np

from ._util import Doc, decimal_strs, fields_json_dict, fraction_strs, ln_int
from .integer_sets import INT64_SAFE, IntegerSet
from .selection import DensitySchedule, SelectionTrial

DEFAULT_GRID_CAP = 1 << 20
# the exclusion set: every a/q with q <= EXCLUSION_DENOMINATOR, and at prefix
# length k every point within EXCLUSION_RADIUS_SCALE / k of one
EXCLUSION_DENOMINATOR = 16
EXCLUSION_RADIUS_SCALE = 0.05
_EXCLUSION_JSON = {"denominator_cap": EXCLUSION_DENOMINATOR, "radius_scale": EXCLUSION_RADIUS_SCALE}
# a modulus below one CPython digit keeps a bignum % on its single-digit path
_DIGIT = 1 << sys.int_info.bits_per_digit
_FOLD_TERMS = 8  # residue classes this small are summed directly; the rest take M/q-point FFTs
_FOLD_CHUNK = 1 << 12  # grid points per step of the folded recombination


@dataclass(frozen=True)
class CirclePoint:
    """A point of the unit circle: exact rational a/q of a turn, or a float
    angle in turns."""

    kind: str
    a: int = 0
    q: int = 1
    theta: float = 0.0

    @classmethod
    def rational(cls, a: int, q: int) -> "CirclePoint":
        if q == 0:
            raise ValueError("rational circle point needs q != 0")
        turn = Fraction(a, q) % 1
        a, q = turn.numerator, turn.denominator
        if q >= 1 << 63:
            raise ValueError(f"rational circle point {a}/{q}: residues mod q must fit int64, so q < 2^63")
        return cls(kind="rational", a=a, q=q)

    @classmethod
    def angle(cls, theta: float) -> "CirclePoint":
        if not math.isfinite(theta):
            raise ValueError(f"circle point angle must be finite, got {theta!r}")
        return cls(kind="angle", theta=float(theta) % 1.0)

    @classmethod
    def parse(cls, text: str) -> "CirclePoint":
        """'a/q' for rationals, decimal for float turns."""
        text = text.strip()
        if "/" in text:
            a, q = text.split("/", 1)
            return cls.rational(int(a), int(q))
        return cls.angle(float(text))

    @property
    def turns(self) -> float:
        return self.a / self.q if self.kind == "rational" else self.theta

    def label(self) -> str:
        return f"{self.a}/{self.q}" if self.kind == "rational" else repr(self.theta)


def _quarter_exact(vals: np.ndarray, residues: np.ndarray, q: int) -> np.ndarray:
    # pin the four exact quarter-turn characters so half-turn sums stay exact
    vals[residues == 0] = 1.0
    if q % 2 == 0:
        vals[residues == q // 2] = -1.0
    if q % 4 == 0:
        vals[residues == q // 4] = 1j
        vals[residues == 3 * (q // 4)] = -1j
    return vals


def character_values(E: IntegerSet | Sequence[int], point: CirclePoint, k: int | None = None) -> np.ndarray:
    """e_n(t) for the first k elements of E (all of them by default), exact in
    phase up to one final float rounding. A plain sequence is first checked
    as an IntegerSet: sorted by |n|, negative first on ties."""
    if not isinstance(E, IntegerSet):
        E = IntegerSet(tuple(E))
    k = len(E) if k is None else k
    if not 0 <= k <= len(E):
        raise ValueError("k must satisfy 0 <= k <= |E|")
    return next(_characters(E, (point,), k))


def _characters(E: IntegerSet, points: Sequence[CirclePoint], k: int) -> Iterator[np.ndarray]:
    """The characters of the first k elements of E at each point in turn.

    The moduli q of the rational points a/q whose |n_k|*a reaches INT64_SAFE
    are packed, in increasing order, greedily into groups whose lcm stays
    below one CPython digit, where a bignum % takes its single-digit path (a
    q past one digit is a group alone). Each group reduces the set once, at
    its first point, and drops the residues after its last; every point whose
    q is in a group takes % q of its group's exact residues before the multiply."""
    arr = E.array[:k]
    top = abs(E.elements[k - 1]) if k else 0
    moduli, group = [], {}  # q -> the index of its group's lcm
    for q in sorted({p.q for p in points if p.kind == "rational" and top * p.a >= INT64_SAFE}):
        if not moduli or math.lcm(moduli[-1], q) >= _DIGIT:
            moduli.append(1)
        moduli[-1] = math.lcm(moduli[-1], q)
        group[q] = len(moduli) - 1
    reduced, last = {}, {group[p.q]: i for i, p in enumerate(points) if p.kind == "rational" and p.q in group}
    for i, p in enumerate(points):
        if p.kind == "angle":
            yield _angle_characters(E, arr, p.theta, k)
            continue
        a, q = p.a, p.q
        n = arr
        if q in group:
            g = group[q]
            if g not in reduced:
                reduced[g] = (arr % moduli[g]).astype(np.int64, copy=False)
            n = (reduced.pop(g) if i == last[g] else reduced[g]) % q
            if (q - 1) * a >= INT64_SAFE:
                n = n.astype(object)  # the product below stays under q*a
        residues = (n * a % q).astype(np.int64, copy=False)
        # at most q distinct residues: when q <= k, evaluate each once and
        # gather; np.exp sees the same inputs, so the values are the same
        steps = np.arange(q) if q <= k else residues
        vals = _quarter_exact(np.exp((2j * np.pi / q) * steps), steps, q)
        yield vals[residues] if q <= k else vals
        del n, residues, steps, vals  # not kept while the next point is computed


def _angle_characters(E: IntegerSet, arr: np.ndarray, theta: float, k: int) -> np.ndarray:
    num, den = theta.as_integer_ratio()
    mask = den - 1  # den = 2^b, so n*num mod den is the low b bits of n*num
    if den <= 1 << 64:
        # the uint64 product wraps mod 2^64, two's complement covers n < 0,
        # and the float conversion rounds once, as int / int does
        low = arr.view(np.uint64) if arr.dtype == np.int64 else (arr & mask).astype(np.uint64)
        phases = low * np.uint64(num) & np.uint64(mask)
        fracs = phases.astype(np.float64) / float(den)
    else:
        # cutting n to its low b bits first keeps each product below 2^(2b)
        fracs = np.fromiter((((n & mask) * num & mask) / den for n in islice(E.elements, k)), dtype=np.float64, count=k)
    return np.exp(2j * np.pi * fracs)


def rational_points(max_denominator: int) -> list[CirclePoint]:
    """All reduced rationals a/q with q <= max_denominator, as circle points."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    out = [CirclePoint.rational(0, 1)]
    for q in range(2, max_denominator + 1):
        for a in range(1, q):
            if gcd(a, q) == 1:
                out.append(CirclePoint.rational(a, q))
    return out


def is_excluded(point: CirclePoint, k: int) -> bool:
    """Exclusion set for weak equidistribution: low rationals, plus a 1/k
    shrinking neighborhood around them."""
    if point.kind == "rational" and point.q <= EXCLUSION_DENOMINATOR:
        return True
    # circular distance to the closest a/q with q <= EXCLUSION_DENOMINATOR
    fracs = [(q, point.turns * q % 1.0) for q in range(1, EXCLUSION_DENOMINATOR + 1)]
    return min(min(f, 1.0 - f) / q for q, f in fracs) < EXCLUSION_RADIUS_SCALE / max(k, 1)


def _max_off_exclusion(moduli: Sequence[float], excluded: Sequence[bool]) -> float | None:
    return max((m for m, ex in zip(moduli, excluded) if not ex), default=None)


@dataclass(frozen=True)
class WeylReport(Doc):
    k: int
    points: tuple[CirclePoint, ...]
    values: tuple[complex, ...]
    excluded: tuple[bool, ...]
    max_off_exclusion: float | None

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "points": [p.label() for p in self.points],
            "values": [[v.real, v.imag] for v in self.values],
            "moduli": [abs(v) for v in self.values],
            "excluded": list(self.excluded),
            "max_off_exclusion": self.max_off_exclusion,
            "exclusion": dict(_EXCLUSION_JSON),
        }


def weyl_means(E: IntegerSet, k: int, points: Sequence[CirclePoint]) -> WeylReport:
    """f_k(t) = (1/k) sum of the first k characters, at each point."""
    if not 1 <= k <= len(E):
        raise ValueError("k must satisfy 1 <= k <= |E|")
    # divide in Python: complex / int stays exact for real sums, where
    # numpy's vectorized complex division would round 49/49 past 1.0
    # map holds no point's characters while the next point's are computed
    values = tuple(map(lambda vals: complex(vals.sum()) / k, _characters(E, points, k)))
    excluded = tuple(is_excluded(p, k) for p in points)
    return WeylReport(k, tuple(points), values, excluded, _max_off_exclusion([abs(v) for v in values], excluded))


@dataclass(frozen=True)
class ScanReport(Doc):
    ks: tuple[int, ...]
    points: tuple[CirclePoint, ...]
    moduli: tuple[tuple[float, ...], ...]  # [k index][point index]
    max_off_exclusion: tuple[float | None, ...]
    trend_ratio: float | None  # last max / first max
    decreasing_fraction: float | None

    def to_json_dict(self) -> dict:
        doc = fields_json_dict(self)
        doc.update(points=[p.label() for p in self.points], exclusion=dict(_EXCLUSION_JSON))
        return doc

    def to_csv(self) -> str:
        lines = ["k,max_off_exclusion"]
        for k, v in zip(self.ks, self.max_off_exclusion):
            lines.append(f"{k},{'' if v is None else repr(v)}")
        return "\n".join(lines) + "\n"


def equidistribution_scan(E: IntegerSet, ks: Sequence[int], points: Sequence[CirclePoint]) -> ScanReport:
    """Running means |f_k(t)| at checkpoints k, with the per-k maximum taken
    off the exclusion set and a monotone-trend summary."""
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1 or ks[-1] > len(E):
        raise ValueError("checkpoints must lie in 1..|E|")
    # one point's running sums at a time, none held by map while the next
    # point's characters are computed
    sums = map(np.cumsum, _characters(E, points, ks[-1]))
    columns = list(map(lambda cs: [float(abs(cs[k - 1])) / k for k in ks], sums))
    moduli = tuple(tuple(col[i] for col in columns) for i in range(len(ks)))
    maxima = tuple(_max_off_exclusion(row, [is_excluded(p, k) for p in points]) for k, row in zip(ks, moduli))
    defined = [m for m in maxima if m is not None]
    trend = decreasing = None
    if len(defined) >= 2:
        trend = defined[-1] / defined[0] if defined[0] > 0 else None
        decreasing = sum(b < a for a, b in zip(defined, defined[1:])) / (len(defined) - 1)
    return ScanReport(tuple(ks), tuple(points), moduli, maxima, trend, decreasing)


# -- sup norms on root-of-unity grids ----------------------------------------


def _grid_values(freqs: np.ndarray, coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    # int64 freqs, or an object array of Python ints that reduce exactly at any size
    bins = np.mod(freqs, grid_size).astype(np.int64)
    # bincount starts each bin at +0.0 and adds its weights in input order, as
    # a term-by-term loop into a zeroed grid does (complex addition adds the
    # parts apart): colliding bins sum in the loop's order, and a lone -0.0
    # lands on +0.0 both ways, so the grid is the loop's bit for bit
    arr = np.zeros(grid_size, dtype=complex)
    arr.real = np.bincount(bins, coeffs.real, grid_size)
    arr.imag = np.bincount(bins, coeffs.imag, grid_size)
    # in place: no second grid-sized array for the transform or the scaling
    np.fft.ifft(arr, out=arr)
    arr *= grid_size
    return arr


def grid_values(spectrum: Mapping[int, complex], grid_size: int) -> np.ndarray:
    """f at the grid_size-th roots of unity, frequencies folded mod the grid."""
    freqs = np.array(list(spectrum), dtype=object)
    return _grid_values(freqs, np.array(list(spectrum.values()), dtype=complex), grid_size)


@dataclass(frozen=True)
class GridSupReport:
    coarse_sup: float
    bound: float  # 5x the coarse sup
    certified: bool  # True when the grid had at least 4N points
    grid_size: int
    cap_active: bool
    max_frequency: int

    def to_json_dict(self) -> dict:
        doc = fields_json_dict(self)
        doc["max_frequency"] = decimal_strs([self.max_frequency], "grid sup max_frequency")[0]
        return doc


def sup_norm_via_grid(spectrum: Mapping[int, complex], grid_cap: int = DEFAULT_GRID_CAP) -> GridSupReport:
    """Coarse sup of a sparse-spectrum polynomial over the 4N-th roots of
    unity and the resulting 5x sup-norm certificate.

    When 4N exceeds the cap the evaluation runs on the capped grid and the
    certificate flag is withdrawn: the value is then only a lower estimate.
    """
    support = {n: c for n, c in spectrum.items() if c != 0}
    coeffs = np.array(list(support.values()), dtype=complex)
    if not coeffs.imag.any():
        coeffs = coeffs.real  # the real transform, as psi takes it
    N = max((abs(n) for n in support), default=0)
    return _grid_sup(np.array(list(support), dtype=object), coeffs, N, max(4 * N, 1), grid_cap)


def _fast_grid_size(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: sizes numpy's FFT takes without
    falling back to Bluestein's algorithm."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that lifts it to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fold_classes(bins: np.ndarray, M: int) -> tuple[int, np.ndarray]:
    """The fold of the bins b = n mod M: the modulus q among the divisors 6, 4
    and 2 of M whose dense classes, those of more than _FOLD_TERMS terms, are
    the least share of its q classes while the sparse ones hold at most
    _FOLD_TERMS terms in all, the larger q on a tie; and its dense-class flags.
    q = 1 with the one class dense where no q leaves a class sparse."""
    counts12 = np.bincount(bins % 12, minlength=12)  # counts mod 6, 4 and 2 sum from these
    q, dense = 1, np.ones(1, dtype=bool)
    for m in (6, 4, 2):
        if M % m == 0:
            counts = counts12.reshape(-1, m).sum(axis=0)
            big = counts > _FOLD_TERMS
            if counts[~big].sum() <= _FOLD_TERMS and np.count_nonzero(big) * q < np.count_nonzero(dense) * m:
                q, dense = m, big
    return q, dense


def _real_sup(bins: np.ndarray, coeffs: np.ndarray, M: int) -> float:
    """_grid_sup's real path, on the bins b = n mod M of its frequencies."""
    q, dense = _fold_classes(bins, M)
    if q == 1:
        return float(np.max(np.abs(np.fft.rfft(np.bincount(bins, coeffs, M)))))
    L, (idx, res) = M // q, np.divmod(bins, q)
    T = L // 2 + 1
    rows = np.flatnonzero(dense)
    Y = np.empty((len(rows), T), dtype=complex)
    for Y_r, r in zip(Y, rows.tolist()):  # one M/q-point grid at a time
        # the other classes' terms add +0.0, which leaves every bin as it was
        np.fft.rfft(np.bincount(idx, np.where(res == r, coeffs, 0.0), L), out=Y_r)
    sparse = np.flatnonzero(~dense[res])
    b = np.concatenate([rows, bins[sparse]])  # each row's frequency: its class, or its bin
    c = np.concatenate([np.ones(len(rows)), coeffs[sparse]])
    u = np.multiply.outer(b, np.arange(q)) % q
    roots = _quarter_exact(np.exp((2j * np.pi / q) * u), u, q).conj().T  # e(-b u / q), one row per u
    # row k's twiddle c e(-b t / M) at t = t0 + i is hi[k, t0 / C] lo[k, i], each over exact residues
    C = min(T, _FOLD_CHUNK)
    step = -2j * np.pi / M
    lo = np.exp(step * (np.multiply.outer(b, np.arange(C)) % M))
    hi = c[:, None] * np.exp(step * (np.multiply.outer(b * C % M, np.arange(-(-T // C))) % M))
    sup = 0.0
    for j, t0 in enumerate(range(0, T, C)):
        W = lo[:, : T - t0] * hi[:, j, None]
        W[: len(rows)] *= Y[:, t0 : t0 + C]
        sup = max(sup, float(np.max(np.abs(roots @ W))))  # p(t0 + i + u M / q), one row per u
    return sup


def _grid_sup(freqs: np.ndarray, coeffs: np.ndarray, N: int, size: int, grid_cap: int) -> GridSupReport:
    """The sup of a polynomial over the M-th roots of unity, M = min(size,
    grid_cap), on a support already cut to nonzero coefficients whose largest
    |frequency| is N.

    Any grid of M >= 4N points certifies: Bernstein's inequality bounds |p'|
    by N ||p||, and every point of the circle lies within pi/M radians of
    the grid, so the grid max is at least (1 - pi N / M) ||p|| >=
    (1 - pi/4) ||p||. Hence ||p|| <= 4.66 x grid max < 5 x grid max. The
    true factor is smaller: |p|^2 is a real trigonometric polynomial of degree
    W = max n - min n, so by Szego's inequality (1928) ||p|| <= grid max /
    sqrt(cos(pi W / M)) for M > 2W, about 1.19 x grid max at M >= 4N >= 4W
    (positive supports). A grid below 4N points leaves only a lower estimate.

    Complex coefficients take the complex inverse FFT of _grid_values; real
    (float) ones, psi's, take rfft of its real part, whose M//2 + 1 outputs
    hold every modulus (the value at M - t conjugates the one at t). The real
    grid folds by the residue classes of the bins b = n mod M (Cooley-Tukey)
    modulo q, the divisor of M among 6, 4 and 2 that leaves the least share of
    dense classes while the sparse ones hold at most _FOLD_TERMS terms in all
    (_fold_classes): q = 6 on the primes when 6 | M, as at 933,120 points, q =
    4 on the primes and the squares at 2^20. Each dense class r takes the
    M/q-point rfft Y_r of its terms at bin b // q, one after another; with the
    sparse terms as rows of one coefficient, p(t + u M/q) = sum over rows of
    e(-b u / q) e(-b t / M) row(t) for t <= M/(2q) and u < q, every modulus
    again, recombined _FOLD_CHUNK points of t at a time. Where no q leaves a
    sparse class (every class dense, or M odd) the plain rfft runs.
    """
    if grid_cap < 1:
        raise ValueError(f"grid_cap must be >= 1, got {grid_cap}")
    if len(coeffs) == 0:
        return GridSupReport(0.0, 0.0, True, 1, False, 0)
    M = min(size, grid_cap)
    cap_active = M < 4 * N
    if np.iscomplexobj(coeffs):
        S = float(np.max(np.abs(_grid_values(freqs, coeffs, M))))
    else:
        S = _real_sup(np.mod(freqs, M).astype(np.int64, copy=False), coeffs, M)
    return GridSupReport(
        coarse_sup=S,
        bound=5.0 * S,
        certified=not cap_active,
        grid_size=M,
        cap_active=cap_active,
        max_frequency=N,
    )


# -- selection discrepancy ----------------------------------------------------


@dataclass(frozen=True)
class PsiPoint(Doc):
    """Grid sup of the difference between the empirical mean of selected
    characters and the density-weighted mean, at prefix length k."""

    k: int
    value: float
    certified_bound: float
    certified: bool
    grid_size: int
    cap_active: bool
    sigma_k: float
    selected_count: int
    a_k: float | None  # (12 sigma_k log|n_k|)^(1/2) decay diagnostic
    to_json_dict = fields_json_dict


def psi(
    E: IntegerSet,
    trial: SelectionTrial,
    schedule: DensitySchedule,
    k: int,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> PsiPoint:
    """Discrepancy psi(k) between the selected-prefix mean and the weighted
    mean, as a coarse grid sup (certified 5x bound flagged alongside).

    The grid is the smallest 5-smooth size of at least 4N points, N the
    degree, capped at grid_cap. Like the 4N grid of sup_norm_via_grid it
    certifies the true sup to within 4.66x, and its FFT avoids Bluestein's
    algorithm; a grid cut below 4N by the cap is uncertified. The coefficients
    (flag/count - delta/sigma_k) are real: the sup comes from real-input FFTs
    of M/q points, one per dense residue class mod q of the frequencies
    (_grid_sup), M/3 points in all on the primes when 6 | M.
    """
    if not 1 <= k <= len(E):
        raise ValueError("k must satisfy 1 <= k <= |E|")
    if not schedule.aligned_with(E):
        raise ValueError("schedule misaligned with set")
    sigma_k = schedule.sigma_at(k)
    if sigma_k <= 0:
        raise ValueError("psi undefined: sigma_k = 0")
    flags = trial.mask(E)[:k]
    count = int(np.count_nonzero(flags))
    if count == 0:
        raise ValueError("psi undefined: empty selection prefix")
    sigma_f = float(sigma_k)
    dens = schedule.density_floats()[:k]
    coeffs = np.where(flags, 1.0 / count, 0.0) - dens / sigma_f
    n_k = abs(E.elements[k - 1])
    freqs, N = E.array[:k], n_k
    if not coeffs.all():  # zero coefficients leave the support, and with it the degree N
        keep = np.flatnonzero(coeffs)
        freqs, coeffs = freqs[keep], coeffs[keep]
        N = abs(E.elements[keep[-1]]) if len(keep) else 0
    report = _grid_sup(freqs, coeffs, N, _fast_grid_size(4 * N), grid_cap)
    a_k = math.sqrt(12.0 * sigma_f * ln_int(n_k)) if n_k > 1 else None
    return PsiPoint(
        k=k,
        value=report.coarse_sup,
        certified_bound=report.bound,
        certified=report.certified,
        grid_size=report.grid_size,
        cap_active=report.cap_active,
        sigma_k=sigma_f,
        selected_count=count,
        a_k=a_k,
    )


@dataclass(frozen=True)
class PsiSeries:
    points: tuple[PsiPoint, ...]
    to_json_dict = fields_json_dict

    def to_csv(self) -> str:
        lines = ["k,psi,a_k_over_sigma_k"]
        for p in self.points:
            ratio = "" if p.a_k is None else repr(p.a_k / p.sigma_k)
            lines.append(f"{p.k},{p.value!r},{ratio}")
        return "\n".join(lines) + "\n"


def psi_series(
    E: IntegerSet,
    trial: SelectionTrial,
    schedule: DensitySchedule,
    ks: Sequence[int],
    grid_cap: int = DEFAULT_GRID_CAP,
) -> PsiSeries:
    return PsiSeries(tuple(psi(E, trial, schedule, k, grid_cap) for k in sorted(set(ks))))


# -- Bernstein tail bound -----------------------------------------------------


def bernstein_bound(sigma: float, a: float) -> float:
    """4 exp(-a^2 / (4 (sigma + a))), for sums of centered variables bounded
    by 1 with total variance at most sigma."""
    if not 0 < a < math.inf:
        raise ValueError(f"a must be positive and finite, got {a}")
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be nonnegative and finite, got {sigma}")
    return 4.0 * math.exp(-a * a / (4.0 * (sigma + a)))


@dataclass(frozen=True)
class BernsteinValidation(Doc):
    kind: str
    n: int
    sigma: float
    trials: int
    seed: int
    rows: tuple[tuple[float, float, float], ...]  # (a, empirical, bound)

    @property
    def all_within_bound(self) -> bool:
        return all(emp <= bound for _, emp, bound in self.rows)

    def to_json_dict(self) -> dict:
        decimal_strs([self.seed], f"seed of the {self.kind} Bernstein validation")  # refused naming the validation
        doc = fields_json_dict(self)
        doc["rows"] = [
            {"a": a, "empirical": emp, "bound": bound, "within": emp <= bound} for a, emp, bound in self.rows
        ]
        doc["all_within_bound"] = self.all_within_bound
        return doc


def monte_carlo_bernstein(
    n: int,
    distribution: Mapping,
    a_values: Sequence[float],
    trials: int,
    seed: int,
) -> BernsteinValidation:
    """Empirical tails P(|X_1 + ... + X_n| >= a) against the closed-form
    bound, for centered variables bounded by 1.

    Supported distributions: {"kind": "rademacher"}, {"kind": "selector",
    "delta": d} (centered Bernoulli), {"kind": "uniform", "half_width": c}.
    """
    if trials < 1 or n < 1:
        raise ValueError("n and trials must be >= 1")
    kind = distribution.get("kind")
    decimal_strs([seed], f"seed of the {kind} Bernstein validation")  # the validation could not be written
    rng = np.random.default_rng(seed)
    if kind == "rademacher":
        sigma = float(n)
        sums = 2.0 * rng.binomial(n, 0.5, size=trials).astype(np.float64) - n
    elif kind == "selector":
        delta = float(distribution["delta"])
        if not 0 <= delta <= 1:
            raise ValueError("selector delta must lie in [0, 1]")
        sigma = n * delta * (1.0 - delta)
        sums = rng.binomial(n, delta, size=trials).astype(np.float64) - n * delta
    elif kind == "uniform":
        c = float(distribution["half_width"])
        if not 0 < c <= 1:
            raise ValueError("uniform variables violate |X_i| <= 1 unless 0 < half_width <= 1")
        sigma = n * c * c / 3.0
        sums = np.zeros(trials)
        chunk = max(1, 10_000_000 // n)
        for lo in range(0, trials, chunk):
            hi = min(lo + chunk, trials)
            sums[lo:hi] = rng.uniform(-c, c, size=(hi - lo, n)).sum(axis=1)
    else:
        raise ValueError(f"unknown distribution kind {kind!r}")
    abss = np.abs(sums)
    rows = []
    for a in a_values:
        a = float(a)
        empirical = float(np.count_nonzero(abss >= a)) / trials
        rows.append((a, empirical, bernstein_bound(sigma, a)))
    return BernsteinValidation(
        kind=str(kind), n=n, sigma=sigma, trials=trials, seed=seed, rows=tuple(rows)
    )


# -- summing matrix regularity ------------------------------------------------


@dataclass(frozen=True)
class SummingMatrixReport:
    """Exact regularity checks for the weighted-mean matrix a_{k,j} =
    delta_j / sigma_k: nonnegativity, unit row sums, unit variation sums."""

    rows: tuple[dict, ...]
    all_ok: bool
    skipped_zero_sigma: tuple[int, ...]
    to_json_dict = fields_json_dict


def summing_matrix_check(schedule: DensitySchedule, ks: Sequence[int] | None = None) -> SummingMatrixReport:
    """Verify, in exact rational arithmetic, that each row of the summing
    matrix is nonnegative, sums to 1, and has variation sum 1.

    Rows of an increasing schedule fail the variation identity (> 1) and are
    reported as failures, matching the monotonicity hypothesis.
    """
    K = len(schedule)
    if ks is None:
        ks = range(1, K + 1)
    rows: list[dict] = []
    skipped: list[int] = []
    ok = True
    densities = schedule.densities
    for k in ks:
        if not 1 <= k <= K:
            raise ValueError("row index out of range")
        head = densities[:k]
        sigma_k = sum(head, Fraction(0))  # not sigma_at, whose memo would keep every row's sum
        if sigma_k == 0:
            skipped.append(k)
            continue
        coeffs = [d / sigma_k for d in head]
        row_sum = sum(coeffs, Fraction(0))
        variation = Fraction(0)
        for j in range(1, k + 1):
            nxt = coeffs[j] if j < k else Fraction(0)
            variation += j * abs(coeffs[j - 1] - nxt)
        nonincreasing = all(a >= b for a, b in zip(head, head[1:]))
        row_ok = row_sum == 1 and variation == 1
        ok = ok and row_ok
        row_sum_text, variation_text = fraction_strs([row_sum, variation], f"summing-matrix row {k}")
        rows.append(
            {
                "k": k,
                "row_sum": row_sum_text,
                "row_sum_is_one": row_sum == 1,
                "variation": variation_text,
                "variation_is_one": variation == 1,
                "nonincreasing": nonincreasing,
                "ok": row_ok,
            }
        )
    return SummingMatrixReport(rows=tuple(rows), all_ok=ok, skipped_zero_sigma=tuple(skipped))
