"""Weyl means, grid-certified sup norms, selection discrepancy, the
Bernstein tail bound, and summing-matrix regularity checks.

Circle points are either exact rationals a/q of a full turn (characters are
evaluated through bignum residues n*a mod q) or float angles (the phase
n*theta mod 1 is reduced in exact integer arithmetic before any float
rounding, so huge frequencies lose no accuracy).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Mapping, Sequence

import numpy as np

from ._util import ln_int
from .integer_sets import INT64_SAFE, IntegerSet
from .selection import DensitySchedule, SelectionTrial

DEFAULT_GRID_CAP = 1 << 20
DEFAULT_EXCLUSION_DENOMINATOR = 16
DEFAULT_EXCLUSION_RADIUS_SCALE = 0.05


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
        if q < 0:
            a, q = -a, -q
        a %= q
        g = gcd(a, q)
        return cls(kind="rational", a=a // g, q=q // g)

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


def character_values(elements: Sequence[int], point: CirclePoint) -> np.ndarray:
    """e_n(t) for each n, exact in phase up to one final float rounding."""
    if point.kind == "rational":
        a, q = point.a, point.q
        if elements and max(abs(elements[0]), abs(elements[-1])) * a < INT64_SAFE:
            arr = np.array(elements, dtype=np.int64)
            residues = (arr * a) % q
        else:
            residues = np.array([(n * a) % q for n in elements], dtype=np.int64)
        vals = np.exp((2j * np.pi / q) * residues)
        return _quarter_exact(vals, residues, q)
    num, den = point.theta.as_integer_ratio()  # den is a power of two
    fracs = np.array([((n * num) % den) / den for n in elements], dtype=np.float64)
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


def nearest_low_rational_distance(turns: float, denominator_cap: int) -> float:
    """Circular distance to the closest a/q with q <= denominator_cap."""
    best = 1.0
    for q in range(1, denominator_cap + 1):
        frac = (turns * q) % 1.0
        best = min(best, min(frac, 1.0 - frac) / q)
    return best


def is_excluded(
    point: CirclePoint,
    k: int,
    denominator_cap: int = DEFAULT_EXCLUSION_DENOMINATOR,
    radius_scale: float = DEFAULT_EXCLUSION_RADIUS_SCALE,
) -> bool:
    """Exclusion set for weak equidistribution: low rationals, plus a 1/k
    shrinking neighborhood around them."""
    if point.kind == "rational" and point.q <= denominator_cap:
        return True
    return nearest_low_rational_distance(point.turns, denominator_cap) < radius_scale / max(k, 1)


@dataclass(frozen=True)
class WeylReport:
    k: int
    points: tuple[CirclePoint, ...]
    values: tuple[complex, ...]
    excluded: tuple[bool, ...]
    max_off_exclusion: float | None
    exclusion_denominator: int
    exclusion_radius_scale: float

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "points": [p.label() for p in self.points],
            "values": [[v.real, v.imag] for v in self.values],
            "moduli": [abs(v) for v in self.values],
            "excluded": list(self.excluded),
            "max_off_exclusion": self.max_off_exclusion,
            "exclusion": {
                "denominator_cap": self.exclusion_denominator,
                "radius_scale": self.exclusion_radius_scale,
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)


def weyl_means(
    E: IntegerSet,
    k: int,
    points: Sequence[CirclePoint],
    exclusion_denominator: int = DEFAULT_EXCLUSION_DENOMINATOR,
    exclusion_radius_scale: float = DEFAULT_EXCLUSION_RADIUS_SCALE,
) -> WeylReport:
    """f_k(t) = (1/k) sum of the first k characters, at each point."""
    if not 1 <= k <= len(E):
        raise ValueError("k must satisfy 1 <= k <= |E|")
    prefix = E.elements[:k]
    values = []
    for p in points:
        # divide in Python: complex / int stays exact for real sums, where
        # numpy's vectorized complex division would round 49/49 past 1.0
        values.append(complex(character_values(prefix, p).sum()) / k)
    excluded = tuple(
        is_excluded(p, k, exclusion_denominator, exclusion_radius_scale) for p in points
    )
    off = [abs(v) for v, ex in zip(values, excluded) if not ex]
    return WeylReport(
        k=k,
        points=tuple(points),
        values=tuple(values),
        excluded=excluded,
        max_off_exclusion=max(off) if off else None,
        exclusion_denominator=exclusion_denominator,
        exclusion_radius_scale=exclusion_radius_scale,
    )


@dataclass(frozen=True)
class ScanReport:
    ks: tuple[int, ...]
    points: tuple[CirclePoint, ...]
    moduli: tuple[tuple[float, ...], ...]  # [k index][point index]
    max_off_exclusion: tuple[float | None, ...]
    trend_ratio: float | None  # last max / first max
    decreasing_fraction: float | None
    exclusion_denominator: int
    exclusion_radius_scale: float

    def to_json_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "points": [p.label() for p in self.points],
            "moduli": [list(row) for row in self.moduli],
            "max_off_exclusion": list(self.max_off_exclusion),
            "trend_ratio": self.trend_ratio,
            "decreasing_fraction": self.decreasing_fraction,
            "exclusion": {
                "denominator_cap": self.exclusion_denominator,
                "radius_scale": self.exclusion_radius_scale,
            },
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def to_csv(self) -> str:
        lines = ["k,max_off_exclusion"]
        for k, v in zip(self.ks, self.max_off_exclusion):
            lines.append(f"{k},{'' if v is None else repr(v)}")
        return "\n".join(lines) + "\n"


def equidistribution_scan(
    E: IntegerSet,
    ks: Sequence[int],
    points: Sequence[CirclePoint],
    exclusion_denominator: int = DEFAULT_EXCLUSION_DENOMINATOR,
    exclusion_radius_scale: float = DEFAULT_EXCLUSION_RADIUS_SCALE,
) -> ScanReport:
    """Running means |f_k(t)| at checkpoints k, with the per-k maximum taken
    off the exclusion set and a monotone-trend summary."""
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 1 or ks[-1] > len(E):
        raise ValueError("checkpoints must lie in 1..|E|")
    prefix = E.elements[: ks[-1]]
    moduli_rows: list[tuple[float, ...]] = []
    per_point_cumsums = [np.cumsum(character_values(prefix, p)) for p in points]
    for k in ks:
        moduli_rows.append(tuple(float(abs(cs[k - 1])) / k for cs in per_point_cumsums))
    maxima: list[float | None] = []
    for k, row in zip(ks, moduli_rows):
        off = [
            m
            for m, p in zip(row, points)
            if not is_excluded(p, k, exclusion_denominator, exclusion_radius_scale)
        ]
        maxima.append(max(off) if off else None)
    defined = [m for m in maxima if m is not None]
    trend = None
    decreasing = None
    if len(defined) >= 2:
        trend = defined[-1] / defined[0] if defined[0] > 0 else None
        steps = [(a, b) for a, b in zip(defined, defined[1:])]
        decreasing = sum(1 for a, b in steps if b < a) / len(steps)
    return ScanReport(
        ks=tuple(ks),
        points=tuple(points),
        moduli=tuple(moduli_rows),
        max_off_exclusion=tuple(maxima),
        trend_ratio=trend,
        decreasing_fraction=decreasing,
        exclusion_denominator=exclusion_denominator,
        exclusion_radius_scale=exclusion_radius_scale,
    )


# -- sup norms on root-of-unity grids ----------------------------------------


def _grid_values(freqs: np.ndarray, coeffs: np.ndarray, grid_size: int) -> np.ndarray:
    if grid_size < 1:
        raise ValueError("grid_size must be positive")
    # int64 freqs, or an object array of Python ints that reduce exactly at any size
    bins = np.mod(freqs, grid_size).astype(np.int64)
    arr = np.zeros(grid_size, dtype=complex)
    # unbuffered and in input order: colliding bins sum in the same order as
    # a term-by-term loop, so the result is bit-identical to one
    np.add.at(arr, bins, coeffs)
    return np.fft.ifft(arr) * grid_size


def grid_values(spectrum: Mapping[int, complex], grid_size: int) -> np.ndarray:
    """f at the grid_size-th roots of unity, frequencies folded mod the grid."""
    freqs = np.array(list(spectrum), dtype=object)
    return _grid_values(freqs, np.array(list(spectrum.values()), dtype=complex), grid_size)


@dataclass(frozen=True)
class GridSupReport:
    coarse_sup: float
    bound: float  # 5x the coarse sup
    certified: bool  # True when the grid had its full 4N points
    grid_size: int
    cap_active: bool
    max_frequency: int

    def to_json_dict(self) -> dict:
        return {
            "coarse_sup": self.coarse_sup,
            "bound": self.bound,
            "certified": self.certified,
            "grid_size": self.grid_size,
            "cap_active": self.cap_active,
            "max_frequency": str(self.max_frequency),
        }


def sup_norm_via_grid(spectrum: Mapping[int, complex], grid_cap: int = DEFAULT_GRID_CAP) -> GridSupReport:
    """Coarse sup of a sparse-spectrum polynomial over the 4N-th roots of
    unity and the resulting 5x sup-norm certificate.

    When 4N exceeds the cap the evaluation runs on the capped grid and the
    certificate flag is withdrawn: the value is then only a lower estimate.
    """
    support = {n: c for n, c in spectrum.items() if c != 0}
    coeffs = np.array(list(support.values()), dtype=complex)
    N = max((abs(n) for n in support), default=0)
    return _grid_sup(np.array(list(support), dtype=object), coeffs, N, grid_cap)


def _grid_sup(freqs: np.ndarray, coeffs: np.ndarray, N: int, grid_cap: int) -> GridSupReport:
    """sup_norm_via_grid on a support already cut to nonzero coefficients,
    whose largest |frequency| is N."""
    if len(coeffs) == 0:
        return GridSupReport(0.0, 0.0, True, 1, False, 0)
    natural = max(4 * N, 1)
    M = min(natural, grid_cap)
    cap_active = natural > grid_cap
    vals = _grid_values(freqs, coeffs, M)
    S = float(np.max(np.abs(vals)))
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
class PsiPoint:
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

    def to_json_dict(self) -> dict:
        return {
            "k": self.k,
            "value": self.value,
            "certified_bound": self.certified_bound,
            "certified": self.certified,
            "grid_size": self.grid_size,
            "cap_active": self.cap_active,
            "sigma_k": self.sigma_k,
            "selected_count": self.selected_count,
            "a_k": self.a_k,
        }


def psi(
    E: IntegerSet,
    trial: SelectionTrial,
    schedule: DensitySchedule,
    k: int,
    grid_cap: int = DEFAULT_GRID_CAP,
) -> PsiPoint:
    """Discrepancy psi(k) between the selected-prefix mean and the weighted
    mean, as a coarse grid sup (certified 5x bound flagged alongside)."""
    if not 1 <= k <= len(E):
        raise ValueError("k must satisfy 1 <= k <= |E|")
    if not schedule.aligned_with(E):
        raise ValueError("schedule misaligned with set")
    sigma_k = schedule.sigma_at(k)
    if sigma_k <= 0:
        raise ValueError("psi undefined: sigma_k = 0")
    flags = np.fromiter(map(trial.selected.members.__contains__, E.elements[:k]), dtype=bool, count=k)
    count = int(np.count_nonzero(flags))
    if count == 0:
        raise ValueError("psi undefined: empty selection prefix")
    sigma_f = float(sigma_k)
    coeffs = np.where(flags, 1.0 / count, 0.0) - schedule.density_floats()[:k] / sigma_f
    # zero coefficients leave the support, and with it the degree N
    keep = np.flatnonzero(coeffs != 0.0)
    N = abs(E.elements[keep[-1]]) if len(keep) else 0
    n_k = abs(E.elements[k - 1])
    report = _grid_sup(E.array[:k][keep], coeffs[keep], N, grid_cap)
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

    def to_json_dict(self) -> dict:
        return {"points": [p.to_json_dict() for p in self.points]}

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
    if a <= 0:
        raise ValueError("a must be positive")
    if sigma < 0:
        raise ValueError("sigma must be nonnegative")
    return 4.0 * math.exp(-a * a / (4.0 * (sigma + a)))


@dataclass(frozen=True)
class BernsteinValidation:
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
        return {
            "kind": self.kind,
            "n": self.n,
            "sigma": self.sigma,
            "trials": self.trials,
            "seed": self.seed,
            "rows": [
                {"a": a, "empirical": emp, "bound": bound, "within": emp <= bound}
                for a, emp, bound in self.rows
            ],
            "all_within_bound": self.all_within_bound,
        }


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

    def to_json_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "all_ok": self.all_ok,
            "skipped_zero_sigma": list(self.skipped_zero_sigma),
        }


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
    for k in ks:
        if not 1 <= k <= K:
            raise ValueError("row index out of range")
        sigma_k = schedule.sigma_at(k)
        if sigma_k == 0:
            skipped.append(k)
            continue
        dens = schedule.densities[:k]
        coeffs = [d / sigma_k for d in dens]
        row_sum = sum(coeffs, Fraction(0))
        variation = Fraction(0)
        for j in range(1, k + 1):
            nxt = coeffs[j] if j < k else Fraction(0)
            variation += j * abs(coeffs[j - 1] - nxt)
        nonincreasing = all(a >= b for a, b in zip(dens, dens[1:]))
        row_ok = row_sum == 1 and variation == 1
        ok = ok and row_ok
        rows.append(
            {
                "k": k,
                "row_sum": f"{row_sum.numerator}/{row_sum.denominator}",
                "row_sum_is_one": row_sum == 1,
                "variation": f"{variation.numerator}/{variation.denominator}",
                "variation_is_one": variation == 1,
                "nonincreasing": nonincreasing,
                "ok": row_ok,
            }
        )
    return SummingMatrixReport(rows=tuple(rows), all_ok=ok, skipped_zero_sigma=tuple(skipped))
