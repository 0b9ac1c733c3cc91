import cmath
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lacunary import (
    CirclePoint,
    DensitySchedule,
    IntegerSet,
    bernstein_bound,
    blockwise_schedule,
    decompose,
    decreasing_density_schedule,
    dyadic_partition,
    equidistribution_scan,
    generate_geometric,
    generate_integers,
    generate_polynomial,
    generate_primes,
    monte_carlo_bernstein,
    psi,
    psi_series,
    select,
    summing_matrix_check,
    sup_norm_via_grid,
    uniform_schedule,
    weyl_means,
)
from lacunary.equidistribution import (
    _characters,
    _fast_grid_size,
    _fold_classes,
    _grid_sup,
    _grid_values,
    character_values,
    grid_values,
    is_excluded,
    rational_points,
)
from lacunary.experiments import DEFAULT_SCAN_POINTS
from lacunary.selection import trial_seed

from _oracles import direct_sup_on_grid


def test_circle_point_parsing_and_reduction():
    p = CirclePoint.parse("6/8")
    assert (p.a, p.q) == (3, 4)
    assert CirclePoint.rational(-1, 4).a == 3
    assert CirclePoint.parse("0.25").theta == 0.25
    with pytest.raises(ValueError):
        CirclePoint.rational(1, 0)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "1e999"])
def test_circle_point_angle_must_be_finite(text):
    with pytest.raises(ValueError, match="finite"):
        CirclePoint.parse(text)


def test_weyl_at_one_is_exactly_one():
    E = generate_primes(10**4)
    for k in (1, 17, len(E)):
        r = weyl_means(E, k, [CirclePoint.rational(0, 1)])
        assert r.values[0] == 1 + 0j


def test_weyl_even_set_at_half_turn_exactly_one():
    E = IntegerSet.from_iterable(range(2, 4002, 2))
    for k in (1, 2, 1000, 2000):
        r = weyl_means(E, k, [CirclePoint.rational(1, 2)])
        assert r.values[0] == 1 + 0j


def test_weyl_integers_at_half_turn_alternating():
    E = generate_integers(501)
    for k in (1, 2, 7, 500, 501):
        v = weyl_means(E, k, [CirclePoint.rational(1, 2)]).values[0]
        assert v.imag == 0.0
        assert v.real == (0.0 if k % 2 == 0 else -1.0 / k)
        assert abs(v) <= 1.0 / k


def test_weyl_modulus_never_exceeds_one():
    rng = random.Random(12)
    E = IntegerSet.from_iterable(rng.sample(range(-10**6, 10**6), 500))
    pts = [CirclePoint.rational(3, 7), CirclePoint.angle(0.1234), CirclePoint.angle(0.9)]
    r = weyl_means(E, 500, pts)
    assert all(abs(v) <= 1 + 1e-12 for v in r.values)


def test_weyl_rational_vs_float_agreement():
    rng = random.Random(4)
    E = IntegerSet.from_iterable(rng.sample(range(1, 10**6), 2000))
    for _ in range(10):
        q = rng.randint(2, 10**6)
        a = rng.randint(1, q - 1)
        exact = weyl_means(E, 2000, [CirclePoint.rational(a, q)]).values[0]
        floated = weyl_means(E, 2000, [CirclePoint.angle(a / q)]).values[0]
        assert abs(exact - floated) < 1e-10


def test_weyl_bignum_frequencies():
    E = generate_geometric(3, 80)
    r = weyl_means(E, 80, [CirclePoint.rational(1, 27), CirclePoint.angle(0.333)])
    # 3^j = 0 mod 27 for j >= 3: the mean locks near 1
    assert abs(r.values[0] - 1) < 0.12
    assert abs(r.values[1]) <= 1 + 1e-12


def test_character_values_checks_a_plain_sequence():
    # the int64 guard reads the largest |n|, which an unordered sequence would hide
    p = CirclePoint.rational(5, 7)
    with pytest.raises(ValueError, match="sorted"):
        character_values((3, 2**61 + 1, 5), p)
    got = character_values((3, 5, 2**61 + 1), p)
    want = [cmath.exp(2j * cmath.pi * (n * 5 % 7) / 7) for n in (3, 5, 2**61 + 1)]
    assert np.allclose(got, want, rtol=0, atol=1e-12)
    assert np.array_equal(character_values(IntegerSet((3, 5, 2**61 + 1)), p, 2), got[:2])


@pytest.mark.parametrize("point", [CirclePoint.rational(3, 7), CirclePoint.angle(0.1234567)], ids=["rational", "angle"])
@pytest.mark.parametrize("E", [IntegerSet((1, 2, 3)), IntegerSet((3, 9, 3**50))], ids=["int64", "object"])
@pytest.mark.parametrize("k", [-1, 4])
def test_character_values_checks_k(E, point, k):
    with pytest.raises(ValueError, match=r"0 <= k <= \|E\|"):
        character_values(E, point, k)
    assert [len(character_values(E, point, j)) for j in (0, 3)] == [0, 3]


_INT64_EDGE = 2**62 - 1  # the widest |n| an IntegerSet keeps in an int64 array


def _angle_characters_by_loop(E: IntegerSet, theta: float, k: int) -> np.ndarray:
    # each phase n*theta mod 1 reduced as a Python int, one rounding in int / int
    num, den = theta.as_integer_ratio()
    return np.exp(2j * np.pi * np.array([n * num % den / den for n in E.elements[:k]], dtype=np.float64))


@st.composite
def _character_sets(draw):
    if draw(st.booleans()):
        # int64: negative elements, 0 and +-(2^62 - 1) among them
        edges = draw(st.sets(st.sampled_from((0, _INT64_EDGE, -_INT64_EDGE))))
        values = edges | draw(st.sets(st.integers(-_INT64_EDGE, _INT64_EDGE), max_size=40))
    else:
        # object: powers of 3 up to 3^300, with signed bignums among them
        values = {3**300} | {3**j for j in draw(st.sets(st.integers(1, 299), max_size=40))}
        values |= draw(st.sets(st.integers(-(2**200), 2**200), max_size=8))
    E = IntegerSet.from_iterable(values)
    return E, draw(st.integers(0, len(E)))


_ODD_MANTISSAS = st.integers(0, 2**52 - 1).map(lambda m: 2 * m + 1)
_THETAS = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1.0, exclude_max=True),  # b <= 64 but for tiny angles
    _ODD_MANTISSAS.map(lambda m: m / 2**64),  # b = 64
    st.builds(lambda m, b: m / 2**b, _ODD_MANTISSAS, st.integers(65, 1074)),  # b > 64
)


@settings(max_examples=400, deadline=None)
@given(_character_sets(), _THETAS)
@example((IntegerSet((0, -_INT64_EDGE, _INT64_EDGE)), 3), (2**53 - 1) / 2**64)
@example((IntegerSet((0, -_INT64_EDGE, _INT64_EDGE)), 3), 1e-9)
@example((IntegerSet((0, -_INT64_EDGE, _INT64_EDGE)), 3), 0.0)
@example((generate_geometric(3, 300), 300), 1e-9)
@example((generate_geometric(3, 300), 300), 0.0)
def test_angle_characters_match_the_integer_loop(set_and_k, theta):
    E, k = set_and_k
    p = CirclePoint.angle(theta)
    assert np.array_equal(character_values(E, p, k), _angle_characters_by_loop(E, p.theta, k))



def _rational_characters_by_loop(E: IntegerSet, a: int, q: int, k: int) -> np.ndarray:
    # each residue n*a mod q as a Python int, np.exp over all of them, then the
    # four quarter-turn characters pinned to their exact values
    residues = np.array([n * a % q for n in E.elements[:k]], dtype=np.int64)
    vals = np.exp((2j * np.pi / q) * residues)
    pins = [(0, 1.0)] + [(q // 2, -1.0)] * (q % 2 == 0) + [(q // 4, 1j), (3 * q // 4, -1j)] * (q % 4 == 0)
    for step, exact in pins:
        vals[residues == step] = exact
    return vals


_DENOMINATORS = st.one_of(
    st.integers(1, 12),  # below k on most drawn sets: the table path
    st.integers(1, 30).map(lambda m: 4 * m),  # quarter turns pinned
    st.integers(13, 2**31),
    st.integers(2**31, 2**62),  # (q - 1) * a past int64: the reduced product goes through object
    st.just(2**63 - 1),
)


@settings(max_examples=400, deadline=None)
@given(_character_sets(), _DENOMINATORS, st.integers(0, 2**63))
@example((generate_polynomial([0, 0, 1], 3000), 3000), 997, 123)
@example((generate_polynomial([0, 0, 1], 3000), 1500), 2**63 - 1, 2**62 + 1)
@example((generate_geometric(3, 300), 300), 68, 5)
@example((generate_geometric(3, 300), 300), 2**63 - 1, 3)
@example((IntegerSet((0, -_INT64_EDGE, _INT64_EDGE)), 3), 2**63 - 1, 2**63 - 2)
@example((IntegerSet((0, -4, 4, -8, 8)), 5), 4, 1)
def test_rational_characters_match_the_integer_loop(set_and_k, q, a):
    E, k = set_and_k
    p = CirclePoint.rational(a, q)
    assert character_values(E, p, k).tobytes() == _rational_characters_by_loop(E, p.a, p.q, k).tobytes()

# SHA-256 of WeylReport and ScanReport JSON, taken when every angle phase was
# reduced by the integer loop above. They hash np.exp and summation output,
# so they hold for one numpy build (2.4.6 on x86-64).
_PINNED_WEYL_SETS = {
    "squares": lambda: generate_polynomial([0, 0, 1], 100_000),
    "geometric": lambda: generate_geometric(3, 5000),
    "primes": lambda: generate_primes(1 << 16),
}
_PINNED_WEYL_POINTS = {
    # four rationals, then angles num/2^b with b = 52, 55, 82 and 64
    "mixed": ("1/5", "3/7", "5/17", "123/997", "0.41421356237309515", "0.1234567", "1e-09", repr((2**53 - 1) / 2**64)),
    "default": DEFAULT_SCAN_POINTS,
}
_PINNED_WEYL_DIGESTS = {
    ("squares", "mixed"): (
        "ff0fb65d491b96561897a95fc89bfea6b825f23f351ebd2de3a00ef34add9c02",
        "1156b638cd60f931564aebdceb9bbf47b9916d64e49f66a55009d6ff612cccfe",
    ),
    ("squares", "default"): (
        "321aa66bff8917fea0ca0abf2babf62a0a217d14738ebdc60b8024f21b563039",
        "284678315747d35a85775952a8caa4b25a65dad0f6e4640af57b499deb2d4d01",
    ),
    ("geometric", "mixed"): (
        "dfa41702301dd20eb496d6979283e7cc9665a0aabc16e96928db73c906df035e",
        "68b48858aa1e476bdd17ce048cca2dbd0fa55f51224702c9ad39b5b058ad84bc",
    ),
    ("geometric", "default"): (
        "ad06ff1cf721a30a78c51a81a5a45cdf97aab155c0516749b611b1ce805f31ff",
        "d3844fc7257be1d99498d12e35ab69c98b9e003bd237c9bfd0a3eb2a9aa50dd3",
    ),
    ("primes", "mixed"): (
        "95d6d7f6f3826343b593bad9dd820c97a3e80fdefa2395e4fb545c5407731c28",
        "d54cc6309e91496c879618f69acf6037c592cbef1d19dce4e914d6456b8bdf0e",
    ),
    ("primes", "default"): (
        "e553ef9cbb3fae835f7b6bfebd008ddbe1c2e4784e413e01ae93c6410500296a",
        "3b3a938f07bf319a36aa1b744cb5b90be0a38a80d3a46e34aae7a494d609bfd9",
    ),
}


@pytest.mark.parametrize("set_name, points_name", sorted(_PINNED_WEYL_DIGESTS))
def test_weyl_and_scan_json_pinned(set_name, points_name):
    E = _PINNED_WEYL_SETS[set_name]()
    points = [CirclePoint.parse(t) for t in _PINNED_WEYL_POINTS[points_name]]
    ks = [len(E) * i // 4 for i in range(1, 5)]
    got = tuple(
        hashlib.sha256(report.to_json().encode()).hexdigest()
        for report in (weyl_means(E, len(E), points), equidistribution_scan(E, ks, points))
    )
    assert got == _PINNED_WEYL_DIGESTS[set_name, points_name]


# Rational points whose wide moduli pack into one, two and three residue
# groups under 30-bit digits: 5*7*17*997 < 2^30; 90, 174, 252 and 524 share
# factors, so their lcm fits one digit though their product does not; 187,
# 211 and 543 fit one but not 683; no three of 30011..30059 fit one. 7 and
# 187 appear under two numerators, 997 exceeds the short prefixes, and
# (q - 1)*a passes INT64_SAFE at q = 2^63 - 25, which takes a group alone.
_GROUPED_POINTS = {
    "one": ("1/5", "3/7", "5/7", "0.1234567", "5/17", "123/997"),
    "lcm": ("1/90", "5/174", "0.7429817379752773", "1/252", "3/524"),
    "two": ("128/211", "682/683", "0.8620058043861345", "217/543", "168/187", "1/187"),
    "three": ("1/30011", "2/30013", "1e-09", "3/30029", "4/30047", "5/30059"),
    "object": ("1/5", f"{2**62 + 1}/{2**63 - 25}", "0.41421356237309515", "2/5"),
}
_GROUPED_SETS = {
    "powers": lambda: generate_geometric(3, 300),
    "signed": lambda: IntegerSet.from_iterable([0] + [(-3) ** j for j in range(1, 301)]),
    # int64, |n| up to 35^12 < 2^62: every numerator from 2 up makes its point wide
    "int64": lambda: IntegerSet.from_iterable((-1) ** j * j**12 for j in range(1, 36)),
}


@pytest.mark.parametrize("set_name", sorted(_GROUPED_SETS))
@pytest.mark.parametrize("points_name", sorted(_GROUPED_POINTS))
def test_grouped_residues_match_a_per_point_character_loop(set_name, points_name):
    E = _GROUPED_SETS[set_name]()
    points = [CirclePoint.parse(t) for t in _GROUPED_POINTS[points_name]]
    # at k = 30 only the large numerators push |n_k|*a past INT64_SAFE
    for k in (30, len(E)):
        want = [complex(character_values(E, p, k).sum()) / k for p in points]
        assert np.array(weyl_means(E, k, points).values).tobytes() == np.array(want).tobytes()
    for ks in ([10, 30], [len(E) * i // 4 for i in range(1, 5)]):
        sums = [np.cumsum(character_values(E, p, ks[-1])) for p in points]
        want = [[float(abs(cs[k - 1])) / k for cs in sums] for k in ks]
        assert np.array(equidistribution_scan(E, ks, points).moduli).tobytes() == np.array(want).tobytes()


def _weyl_peak(E: IntegerSet, points) -> int:
    tracemalloc.start()
    try:
        weyl_means(E, len(E), points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weyl_means_and_scan_hold_one_point_at_a_time():
    # neither the character generator nor its callers keep a point's arrays
    # while the next point's are computed, so more points peak within one
    # element array (8 bytes per element) of one point
    E = IntegerSet(tuple(range(2**36, 2**36 + 50_000)))
    E.array
    points = [CirclePoint.rational(2**26 + 3 * i + 1, 2**34 + 2 * i + 1) for i in range(1, 5)]
    points += [CirclePoint.rational(5, 97), CirclePoint.angle(0.375)]
    one = _weyl_peak(E, points[:1])
    for m in (2, 3, len(points)):
        assert _weyl_peak(E, points[:m]) < one + 8 * len(E)

    def scan_peak(pts):
        tracemalloc.start()
        try:
            equidistribution_scan(E, [10, 1000, len(E)], pts)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = scan_peak(points[:1])
    assert scan_peak(points) < one + 8 * len(E)


def test_weyl_group_residues_released_after_their_last_point():
    # each q is past one CPython digit and |n_k|*a reaches INT64_SAFE, so each
    # point is a group alone; a group's residues (8 bytes per element) are
    # dropped after its last point, so twelve groups peak within one such array
    # of two (keeping every group to the end adds one array per group)
    E = IntegerSet(tuple(range(2**36, 2**36 + 50_000)))
    E.array
    points = [CirclePoint.rational(2**26 + 3 * i + 1, 2**34 + 2 * i + 1) for i in range(12)]
    assert _weyl_peak(E, points) < _weyl_peak(E, points[:2]) + 8 * len(E)


@pytest.mark.parametrize("set_name", ["squares", "geometric", "signed"])
def test_characters_fill_one_buffer_per_call(set_name):
    # rational points with q <= k (a gathered table), q > k, and grouped wide
    # moduli, and angles on either side of 2^64: every yield is the one buffer,
    # holding the point's characters when it is read
    E = {
        "squares": lambda: generate_polynomial([0, 0, 1], 3000),
        "geometric": lambda: generate_geometric(3, 300),
        "signed": lambda: IntegerSet.from_iterable((-1) ** j * j**12 for j in range(1, 36)),
    }[set_name]()
    texts = (*_PINNED_WEYL_POINTS["mixed"], "5/100003", f"{2**62 + 1}/{2**63 - 25}", "0/1", "1/2")
    points = [CirclePoint.parse(t) for t in texts]
    k = len(E)
    first = None
    for p, vals in zip(points, _characters(E, points, k), strict=True):
        first = vals if first is None else first
        assert np.shares_memory(vals, first) and vals.shape == (k,)
        assert vals.tobytes() == character_values(E, p, k).tobytes(), p.label()


def test_weyl_means_and_scan_peak_on_the_squares():
    # squares <= 10^10 at eight mixed points: one complex and one int64 buffer
    # of 10^5 elements (2.3 MiB) and per-point temporaries below one buffer;
    # allocating each point's characters and running sums afresh peaked at 4.58 MiB
    E = _PINNED_WEYL_SETS["squares"]()
    E.array
    points = [CirclePoint.parse(t) for t in _PINNED_WEYL_POINTS["mixed"]]
    ks = [len(E) * i // 4 for i in range(1, 5)]
    for run in (lambda: weyl_means(E, len(E), points), lambda: equidistribution_scan(E, ks, points)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


class _CountedMods(np.ndarray):
    """An array view that records the modulus of each % taken of it."""

    mods: list = []

    def __mod__(self, m):
        self.mods.append(m)
        return np.asarray(self) % m


def test_weyl_groups_reduced_once_across_interleaved_points():
    # 30011 and 30013 share one digit, 30029 does not: two groups, whose points
    # alternate; each group's residues are taken once and serve all its points
    E = IntegerSet(tuple(range(2**48, 2**48 + 5_000)))
    qs = (30011, 30013, 30011, 30013, 30029, 30011)
    points = [CirclePoint.rational(q - 1 - i, q) for i, q in enumerate(qs)]
    want = [complex(character_values(E, p).sum()) / len(E) for p in points]
    vars(E)["array"] = E.array.view(_CountedMods)  # the cached view every character reads
    _CountedMods.mods = []
    assert weyl_means(E, len(E), points).values == tuple(want)
    assert _CountedMods.mods == [30011 * 30013, 30029]


def test_circle_point_residues_must_fit_int64():
    with pytest.raises(ValueError, match="fit int64"):
        CirclePoint.parse("1/99999999999999999989")
    assert CirclePoint.rational(2**70, 2**71).q == 2  # reduced first
    assert CirclePoint.rational(1, 2**63 - 1).q == 2**63 - 1


def _sign_mod_gcd(a, q):
    # the reduction CirclePoint.rational made by hand before it took Fraction(a, q) % 1
    if q < 0:
        a, q = -a, -q
    a %= q
    g = math.gcd(a, q)
    return a // g, q // g


_TURN_INTS = st.one_of(st.integers(-50, 50), st.integers(-(2**70), 2**70))


@settings(max_examples=400, deadline=None)
@given(_TURN_INTS, _TURN_INTS.filter(bool))
@example(0, -5)
@example(-3, -6)
@example(7, 7)
@example(-(2**63), 2**64)
@example(1, -(2**63))
def test_rational_point_reduces_as_sign_mod_gcd(a, q):
    a_ref, q_ref = _sign_mod_gcd(a, q)
    if q_ref >= 1 << 63:
        with pytest.raises(ValueError, match=r"so q < 2\^63"):
            CirclePoint.rational(a, q)
    else:
        point = CirclePoint.rational(a, q)
        assert (point.a, point.q) == (a_ref, q_ref)


def test_rational_points_farey_grid():
    pts = rational_points(5)
    labels = {p.label() for p in pts}
    assert labels == {
        "0/1", "1/2", "1/3", "2/3", "1/4", "3/4", "1/5", "2/5", "3/5", "4/5",
    }
    # Euler phi summation: 1 + phi(2) + ... + phi(5)
    assert len(pts) == 1 + 1 + 2 + 2 + 4


def test_exclusion_rules():
    assert is_excluded(CirclePoint.rational(1, 2), k=10)
    assert is_excluded(CirclePoint.rational(5, 16), k=10)
    assert not is_excluded(CirclePoint.rational(1, 27), k=10)
    # an angle right next to 1/2 is excluded while the radius covers it
    assert is_excluded(CirclePoint.angle(0.5 + 1e-6), k=10)
    assert not is_excluded(CirclePoint.angle(0.5 + 1e-2), k=1000)


def test_scan_squares_quarter_turn_obstruction():
    E = generate_polynomial([0, 0, 1], 10**4)
    quarter = CirclePoint.rational(1, 4)
    scan = equidistribution_scan(E, [10, 100, 1000, 10**4], [quarter])
    # residues n^2 mod 4 lie in {0, 1}: the mean tends to (1+i)/2
    tail = scan.moduli[-1][0]
    assert tail > 0.5
    assert abs(tail - abs((1 + 1j) / 2)) < 0.05
    # the point is rational with small denominator: excluded from the max
    assert scan.max_off_exclusion[-1] is None


def test_scan_squares_irrational_decay():
    E = generate_polynomial([0, 0, 1], 10**5)
    p = CirclePoint.angle(math.sqrt(2) - 1)
    scan = equidistribution_scan(E, [100, 10**3, 10**4, 10**5], [p])
    assert scan.moduli[-1][0] < 0.1
    assert scan.decreasing_fraction == 1.0


def test_scan_geometric_stays_large():
    E = generate_geometric(3, 20)
    pts = [
        CirclePoint.rational(1, 27),
        CirclePoint.rational(1, 81),
        CirclePoint.angle(math.sqrt(2) - 1),
        CirclePoint.angle((math.sqrt(5) - 1) / 2),
    ]
    scan = equidistribution_scan(E, list(range(1, 21)), pts)
    assert all(max(row) >= 0.2 for row in scan.moduli)


def test_scan_csv_output():
    E = generate_integers(100)
    scan = equidistribution_scan(E, [10, 100], [CirclePoint.angle(0.37)])
    lines = scan.to_csv().strip().splitlines()
    assert lines[0] == "k,max_off_exclusion"
    assert len(lines) == 3


def test_sup_norm_trivial_cases():
    r = sup_norm_via_grid({7: 1.0})
    assert r.coarse_sup == pytest.approx(1.0)
    assert r.bound == pytest.approx(5.0)
    assert r.certified
    r2 = sup_norm_via_grid({1: 1.0, 2: 1.0})
    assert r2.coarse_sup == pytest.approx(2.0)  # t = 1 lies on the grid
    assert r2.bound == pytest.approx(10.0)
    r3 = sup_norm_via_grid({})
    assert r3.coarse_sup == 0.0 and r3.bound == 0.0


def test_sup_norm_grid_cap_flagged():
    r = sup_norm_via_grid({3**40: 1.0, 1: -1.0}, grid_cap=4096)
    assert r.cap_active and not r.certified
    assert r.grid_size == 4096


def test_sup_norm_fine_grid_within_certificate():
    rng = random.Random(31)
    for _ in range(20):
        N = rng.randint(8, 64)
        support = rng.sample(range(-N, N + 1), rng.randint(3, 12))
        spectrum = {n: rng.choice([-1.0, 1.0]) for n in support}
        coarse = sup_norm_via_grid(spectrum)
        fine = direct_sup_on_grid(spectrum, 32 * max(abs(n) for n in support))
        assert fine <= 5 * coarse.coarse_sup + 1e-9
        assert fine + 1e-9 >= coarse.coarse_sup  # finer grid sees at least as much


@settings(max_examples=60, deadline=None)
@given(
    width=st.integers(5, 300),
    offset=st.integers(-500, 500),
    positive=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_grid_max_over_root_cos_bounds_the_sup(width, offset, positive, seed):
    # |p|^2 is a real trigonometric polynomial of degree W = max n - min n, so
    # by Szego's inequality no point of the circle exceeds the max over M > 2W
    # roots of unity by more than 1 / sqrt(cos(pi W / M)); a grid of 64W + 7
    # points stands in for the sup
    rng = random.Random(seed)
    inner = rng.sample(range(1, width), rng.randint(0, width - 1))
    if positive:
        coeff = lambda: rng.uniform(0.01, 1.0)
    else:
        coeff = lambda: complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    spectrum = {offset + d: coeff() for d in (0, width, *inner)}
    fine = np.abs(grid_values(spectrum, 64 * width + 7)).max()
    for M in (math.ceil(2.1 * width), math.ceil(2.5 * width), 3 * width, 4 * width):
        coarse = np.abs(grid_values(spectrum, M)).max()
        assert fine <= coarse / math.sqrt(math.cos(math.pi * width / M)) * (1 + 1e-9)


def test_grid_values_match_direct_evaluation():
    spectrum = {-3: 1.0, 2: -0.5, 11: 2.0}
    M = 64
    vals = grid_values(spectrum, M)
    direct = [
        sum(c * np.exp(2j * np.pi * n * r / M) for n, c in spectrum.items()) for r in range(M)
    ]
    assert np.allclose(vals, direct, atol=1e-9)


def test_psi_zero_when_density_one():
    E = generate_primes(2000)
    D = decompose(E, dyadic_partition(11))
    sched = blockwise_schedule(D, [len(b) for b in D.blocks])
    trial = select(E, sched, 3)
    assert psi(E, trial, sched, len(E)).value == 0.0
    assert psi(E, trial, sched, 1).value == 0.0


def test_psi_single_prefix_is_zero():
    E = generate_integers(100)
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 41)
    if E.elements[0] in trial.selected:
        assert psi(E, trial, sched, 1).value == pytest.approx(0.0, abs=1e-15)


def test_psi_undefined_cases():
    E = generate_integers(100)
    zero = uniform_schedule(E, 0)
    trial = select(E, zero, 5)
    with pytest.raises(ValueError, match="psi undefined"):
        psi(E, trial, zero, 10)
    half = uniform_schedule(E, Fraction(1, 2))
    other = select(E, half, 5)
    empty_prefix = IntegerSet.from_iterable([n for n in other.selected if n > 50], "late")
    fake = type(other)(seed=5, selected=empty_prefix)
    with pytest.raises(ValueError, match="psi undefined"):
        psi(E, fake, half, 3)


def test_psi_decay_under_growing_sigma():
    # blockwise ell_k = k on squares: sigma ~ 354 >> log|n_k| ~ 18, so the
    # discrepancy shrinks from prefix 1e3 to 1e4 in essentially every seed
    E = generate_polynomial([0, 0, 1], 10**4)
    D = decompose(E, dyadic_partition(27))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    decays = 0
    for t in range(25):
        trial = select(E, sched, trial_seed(8812, t))
        lo = psi(E, trial, sched, 1000, grid_cap=2**18).value
        hi = psi(E, trial, sched, 10**4, grid_cap=2**18).value
        decays += hi < lo
    assert decays >= 23


def test_psi_marginal_harmonic_schedule_reported():
    # delta = 1/k on squares keeps sigma_k comparable to log|n_k| (the decay
    # hypothesis is marginal), so the decay frequency sits well below 45/50;
    # Monte Carlo oracle at this seed measured 37/50 (band allows FFT
    # rounding drift across library versions)
    E = generate_polynomial([0, 0, 1], 10**4)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)
    decays = 0
    for t in range(50):
        trial = select(E, sched, trial_seed(313, t))
        lo = psi(E, trial, sched, 1000, grid_cap=2**18).value
        hi = psi(E, trial, sched, 10**4, grid_cap=2**18).value
        decays += hi < lo
    assert 30 <= decays <= 44


def test_psi_matches_direct_mean_difference():
    # independent recomputation: evaluate both means pointwise on the same
    # grid with cmath and take the max modulus of the difference
    import cmath

    E = IntegerSet.from_iterable([1, 3, 4, 7, 11, 18, 29, 31])
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 99)
    k = len(E)
    assert 0 < len(trial.selected) < len(E)  # non-degenerate draw
    got = psi(E, trial, sched, k)
    assert got.grid_size == 125 and got.certified

    prefix = E.elements[:k]
    flags = [n in trial.selected for n in prefix]
    count = sum(flags)
    sigma = float(sched.sigma_at(k))
    M = 125
    best = 0.0
    for r in range(M):
        f_sel = sum(
            cmath.exp(2j * cmath.pi * n * r / M) for n, sel in zip(prefix, flags) if sel
        ) / count
        f_weighted = (
            sum(
                float(d) * cmath.exp(2j * cmath.pi * n * r / M)
                for n, d in zip(prefix, sched.densities)
            )
            / sigma
        )
        best = max(best, abs(f_sel - f_weighted))
    assert got.value == pytest.approx(best, abs=1e-10)


def _is_5_smooth(m):
    for p in (2, 3, 5):
        while m % p == 0:
            m //= p
    return m == 1


def test_fast_grid_size_matches_brute_force():
    expected = None
    for n in range(5000, 0, -1):
        if _is_5_smooth(n):
            expected = n
        got = _fast_grid_size(n)
        assert got >= n and _is_5_smooth(got)
        assert got == expected  # the smallest such size: none lies in [n, got)


def test_psi_grid_certifies_when_4n_is_not_smooth():
    # psi's smooth grid carries sup_norm_via_grid's certificate (criterion 06)
    rng = random.Random(606)
    tested = 0
    for _ in range(40):
        E = IntegerSet.from_iterable(rng.sample(range(1, rng.randint(20, 200)), rng.randint(6, 18)))
        sched = uniform_schedule(E, Fraction(1, 2))
        trial = select(E, sched, rng.randrange(1 << 30))
        if not 0 < len(trial.selected) < len(E):
            continue
        spectrum = _psi_dict_spectrum(E, trial, sched, len(E))
        N = max(abs(n) for n in spectrum)
        if _is_5_smooth(4 * N):
            continue
        got = psi(E, trial, sched, len(E))
        assert got.certified and got.grid_size == _fast_grid_size(4 * N) > 4 * N
        fine = direct_sup_on_grid(spectrum, 32 * N)
        assert got.value <= fine + 1e-9
        assert fine <= 5 * got.value
        tested += 1
    assert tested >= 10


@pytest.mark.parametrize("cap, certified", [(124, True), (123, False)])
def test_psi_grid_cap_corner_cases(cap, certified):
    # 4N = 124 on this set: a cap of 4N still certifies, one point less does not
    E = IntegerSet.from_iterable([1, 3, 4, 7, 11, 18, 29, 31])
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 99)
    got = psi(E, trial, sched, len(E), grid_cap=cap)
    assert got.grid_size == cap
    assert got.certified is certified and got.cap_active is not certified


def _psi_dict_spectrum(E, trial, sched, k):
    """psi's spectrum built term by term into a dict, as sup_norm_via_grid takes it."""
    prefix = E.elements[:k]
    flags = [n in trial.selected for n in prefix]
    count = sum(flags)
    sigma_f = float(sched.sigma_at(k))
    spectrum = {}
    for n, d, sel in zip(prefix, sched.densities, flags):
        c = (1.0 / count if sel else 0.0) - float(d) / sigma_f
        if c != 0.0:
            spectrum[n] = c
    return spectrum


def _loop_grid_values(spectrum, M):
    arr = np.zeros(M, dtype=complex)
    for n, c in spectrum.items():
        arr[n % M] += c
    return np.fft.ifft(arr) * M


def _loop_real_sup(spectrum, M):
    """The grid sup of a real spectrum: a float grid filled term by term, as
    _loop_grid_values fills it, then the real-input transform."""
    arr = np.zeros(M)
    for n, c in spectrum.items():
        arr[n % M] += c
    return float(np.max(np.abs(np.fft.rfft(arr))))


@pytest.mark.parametrize("source", ["primes", "geometric"])
def test_psi_array_path_equals_dict_path(source):
    # exact equality: the array path must fold and sum in the dict path's order
    if source == "primes":
        E = generate_primes(2**14)
        D = decompose(E, dyadic_partition(14))
        sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
        k, cap = len(E), 1 << 12
    else:
        E = generate_geometric(3, 200)  # past int64 from 3^40 on
        sched = uniform_schedule(E, Fraction(1, 3))
        k, cap = 150, 1 << 12
    trial = select(E, sched, 5)
    got = psi(E, trial, sched, k, cap)
    spectrum = _psi_dict_spectrum(E, trial, sched, k)
    ref = sup_norm_via_grid(spectrum, grid_cap=cap)
    assert got.cap_active and not got.certified and got.grid_size == cap
    assert (got.value, got.certified_bound, got.grid_size) == (ref.coarse_sup, ref.bound, ref.grid_size)
    # the parity fold sums in another order than the plain transform, so
    # against the loop reference the sup may move by ulps
    assert abs(got.value - _loop_real_sup(spectrum, cap)) <= 1e-12 * sum(map(abs, spectrum.values()))
    if source == "primes":
        assert len({n % cap for n in spectrum}) < len(spectrum)  # bins collide


def test_grid_values_equal_loop_reference():
    # colliding bins, negative and bignum frequencies, complex coefficients
    spectrum = {-3: 1.0, 2: -0.5 + 0.25j, 61: 2.0, 3**50: 0.1, -(3**45): -0.3j, 125: 1 / 3}
    for M in (64, 7, 1):
        assert np.array_equal(grid_values(spectrum, M), _loop_grid_values(spectrum, M))


def _bits(values):
    return np.asarray(values, dtype=complex).tobytes()


def test_grid_fill_is_the_loop_bit_for_bit():
    # bin 0 of 64 gets only -0.0, which sums to +0.0 from the loop's +0.0 start;
    # bins 5 and 2 collect terms in input order, one with a -0.0 imaginary part
    spectrum = {
        69: -0.0, 5: 3.0, -59: -3.0, 64: -0.0, 2: complex(0.5, -0.0), 66: -0.25 + 1e-300j, 3**50: 0.1, -(3**45): -0.3j
    }
    freqs = list(spectrum)
    coeffs = np.array(list(spectrum.values()), dtype=complex)
    for M in (64, 7, 1, 1 << 10):
        expected = _bits(_loop_grid_values(spectrum, M))
        assert _bits(grid_values(spectrum, M)) == expected
        assert _bits(_grid_values(np.array(freqs, dtype=object), coeffs, M)) == expected
    # int64 frequencies and real coefficients, as psi passes them, colliding and with -0.0
    rng = np.random.default_rng(3)
    freqs = np.unique(rng.integers(-5000, 5000, 900))
    real = rng.standard_normal(len(freqs))
    real[::7] = -0.0
    for M in (125, 1000, 3 * 5**4):
        assert len(set((freqs % M).tolist())) < len(freqs)  # bins collide
        assert _bits(_grid_values(freqs, real, M)) == _bits(_loop_grid_values(dict(zip(freqs.tolist(), real)), M))
    assert _bits(grid_values({}, 8)) == _bits(np.zeros(8))


def _grid_sup_peak(freqs, coeffs, N):
    tracemalloc.start()
    try:
        report = _grid_sup(freqs, coeffs, N, 1 << 20, 1 << 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.grid_size == 1 << 20 and report.certified
    return peak


def test_grid_sup_of_real_coefficients_keeps_one_float_grid():
    # at M = 2^20 the float grid is 8 MiB and rfft's M/2 + 1 outputs another 8 MiB;
    # the grid is dropped before the 4 MiB moduli are taken
    E = generate_primes(1 << 18)
    coeffs = np.linspace(-1.0, 1.0, len(E))
    assert _grid_sup_peak(E.array, coeffs, E.max_abs) < 22 << 20
    # complex coefficients keep the one 16 MiB complex grid of _grid_values
    assert _grid_sup_peak(E.array, coeffs + 0.5j, E.max_abs) < 32 << 20


def test_folded_grid_sup_keeps_no_full_size_grid():
    # at M = 2^20 both sets fold mod 4 into two dense classes: two 2 MiB rfft
    # outputs kept, one 2 MiB float grid at a time, and chunks of the
    # recombination, against the 8 MiB grid and 8 MiB rfft of the plain transform
    for E in (generate_primes(1 << 18), generate_polynomial([0, 0, 1], 1 << 9)):
        assert E.max_abs <= 1 << 18
        coeffs = np.linspace(-1.0, 1.0, len(E))
        assert _fold_classes(np.mod(E.array, 1 << 20), 1 << 20)[0] == 4
        assert _grid_sup_peak(E.array, coeffs, E.max_abs) < 8 << 20


@pytest.mark.parametrize("M", [1, 2, 7, 64, 125, 1000, 933_120])
def test_real_transform_sup_matches_the_complex_loop(M):
    # colliding bins, -0.0 coefficients, negative and bignum frequencies; the two
    # transforms round differently, by a few ulps of the sup
    rng = np.random.default_rng(M)
    freqs = rng.integers(-3 * M - 40, 3 * M + 40, 1500).tolist()
    spectrum = dict(zip(freqs, rng.standard_normal(len(freqs)).tolist()))
    spectrum.update({7: -0.0, -M: -0.0, 3**50: 0.1, -(3**45): -0.3, 2**70 + 1: 1.5})
    coeffs = np.array(list(spectrum.values()))
    assert len({n % M for n in spectrum}) < len(spectrum)  # bins collide
    got = _grid_sup(np.array(list(spectrum), dtype=object), coeffs, max(map(abs, spectrum)), M, M)
    assert got.grid_size == M
    assert got.coarse_sup == _loop_real_sup(spectrum, M)
    complex_sup = float(np.max(np.abs(_loop_grid_values(spectrum, M))))
    assert abs(got.coarse_sup - complex_sup) <= 1e-12 * float(np.sum(np.abs(coeffs)))


def _residue_class_spectrum(rng, M, parity, dense, sparse):
    """`dense` terms at frequencies of one parity and `sparse` at the other,
    with negative, int64-boundary and bignum frequencies among them."""
    spectrum = {}
    for par, count in ((parity, dense), (1 - parity, sparse)):
        pool = list(dict.fromkeys(2 * int(m) + par for m in rng.integers(-M - 1000, M + 1000, 3 * count)))
        pool[1:1] = [-(2**63) + 2 + par, 2**63 - 2 + par, 3**50 - 1 + par, -(2**70) + par]
        spectrum.update((n, float(rng.standard_normal())) for n in pool[:count])
    return spectrum


@pytest.mark.parametrize("M", [1, 2, 7, 12, 20, 36, 125, 1024, 2500, 933_120, 1 << 20])
@pytest.mark.parametrize("parity", [1, 0], ids=["odd_dense", "even_dense"])
@pytest.mark.parametrize("sparse", [0, 1, 8, 9])
def test_parity_fold_matches_the_plain_transform(M, parity, sparse):
    # a grid folds mod q = 6, 4 or 2 dividing M when its classes of at most
    # _FOLD_TERMS = 8 terms hold at most 8 in all; 9 terms of one parity, which
    # spread over two or more classes mod 4 and mod 6, and every odd grid take
    # the plain transform unchanged
    rng = np.random.default_rng([M, parity, sparse])
    spectrum = _residue_class_spectrum(rng, M, parity, 300, sparse)
    assert sum(n % 2 != parity for n in spectrum) == sparse and len(spectrum) == 300 + sparse
    coeffs = np.array(list(spectrum.values()))
    got = _grid_sup(np.array(list(spectrum), dtype=object), coeffs, max(map(abs, spectrum)), M, M)
    assert got.grid_size == M and got.cap_active
    plain = _loop_real_sup(spectrum, M)
    if M % 2 or sparse > 8:
        assert got.coarse_sup == plain
    assert abs(got.coarse_sup - plain) <= 1e-12 * float(np.sum(np.abs(coeffs)))


@pytest.mark.parametrize("M", [2, 12, 20, 36, 1024, 2500, 933_120, 1 << 20])
def test_parity_fold_on_small_spectra_primes_and_squares(M):
    rng = np.random.default_rng(M)
    primes = generate_primes(4000).elements
    cases = [
        {n: float(rng.standard_normal()) for n in primes},  # odd-dense, 2 alone; dense mod 6 in 1 and 5, 3 alone
        # 2 and 3 with 6 multiples of 6 are 8 sparse terms mod 6; with 7 they are 9
        {n: float(rng.standard_normal()) for n in (*primes, *range(6, 42, 6))},
        {n: float(rng.standard_normal()) for n in (*primes, *range(6, 48, 6))},
        {n: float(rng.standard_normal()) for n in generate_polynomial([0, 0, 1], 300)},  # dense mod 4 in 0 and 1
        {n: float(rng.standard_normal()) for n in (3, -5, 2**70, 3**50, 2**63 - 1)},  # both classes sparse
        {4 * n: float(rng.standard_normal()) for n in range(1, 400)},  # even only
    ]
    for spectrum in cases:
        coeffs = np.array(list(spectrum.values()))
        got = _grid_sup(np.array(list(spectrum), dtype=object), coeffs, max(map(abs, spectrum)), M, M)
        assert abs(got.coarse_sup - _loop_real_sup(spectrum, M)) <= 1e-12 * float(np.sum(np.abs(coeffs)))


def test_residue_class_fold_on_a_cap_active_psi_grid():
    # psi on the primes under a cap well below 4N: the folded grid is the capped one
    E = generate_primes(2**16)
    D = decompose(E, dyadic_partition(16))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    trial = select(E, sched, 8)
    spectrum = _psi_dict_spectrum(E, trial, sched, len(E))
    for cap in (1 << 12, 6 * 5**4, 2):
        got = psi(E, trial, sched, len(E), cap)
        assert got.cap_active and got.grid_size == cap
        tol = 1e-12 * sum(map(abs, spectrum.values()))
        assert abs(got.value - _loop_real_sup(spectrum, cap)) <= tol
        assert got.certified_bound == 5.0 * got.value


@pytest.mark.parametrize("cap", [0, -8])
def test_grid_cap_below_one_refused_by_name(cap):
    E = IntegerSet.from_iterable([1, 3, 4, 7, 11, 18, 29, 31])
    sched = uniform_schedule(E, Fraction(1, 2))
    trial = select(E, sched, 99)
    message = f"grid_cap must be >= 1, got {cap}"
    with pytest.raises(ValueError, match=message):
        psi(E, trial, sched, len(E), grid_cap=cap)
    for spectrum in ({1: 1.0, 5: -0.5}, {1: 1j}, {}):
        with pytest.raises(ValueError, match=message):
            sup_norm_via_grid(spectrum, grid_cap=cap)


def test_sup_norm_via_grid_takes_the_complex_transform_only_for_complex_spectra():
    spectrum = {-3: 1.0, 2: -0.5 + 0.25j, 61: 2.0, 3**50: 0.1, -(3**45): -0.3j, 125: 1 / 3}
    for M in (64, 7, 1 << 10):
        got = sup_norm_via_grid(spectrum, grid_cap=M)
        assert got.coarse_sup == float(np.max(np.abs(_loop_grid_values(spectrum, M))))
        # imaginary parts that are all zero, -0.0 among them, leave a real spectrum
        real = {n: complex(c.real, -0.0 if n < 0 else 0.0) for n, c in spectrum.items()}
        reals = {n: c.real for n, c in spectrum.items()}
        # the real path folds even grids by parity, so the sup may move by ulps
        tol = 1e-12 * sum(map(abs, reals.values()))
        assert abs(sup_norm_via_grid(real, grid_cap=M).coarse_sup - _loop_real_sup(reals, M)) <= tol



def test_real_spectra_never_reach_the_complex_transform(monkeypatch):
    # the complex transforms fail while they are patched: a real spectrum, with
    # or without zero imaginary parts, and psi's real coefficients must take
    # the real transform on odd, even and folded grids alike
    def complex_transform(*args, **kwargs):
        raise AssertionError("complex transform")

    spectrum = {-3: 1.0, 2: -0.5, 61: 2.0, 3**50: 0.1, -(3**45): -0.3, 125: 1 / 3}
    E = generate_primes(1 << 12)
    sched = uniform_schedule(E, Fraction(1, 3))
    trial = select(E, sched, 29)
    monkeypatch.setattr(np.fft, "fft", complex_transform)
    monkeypatch.setattr(np.fft, "ifft", complex_transform)
    for M in (64, 7, 1 << 10):
        sup_norm_via_grid(spectrum, grid_cap=M)
        sup_norm_via_grid({n: complex(c, -0.0) for n, c in spectrum.items()}, grid_cap=M)
    for k in (len(E) // 4, len(E)):
        psi(E, trial, sched, k)
    with pytest.raises(AssertionError, match="complex transform"):
        sup_norm_via_grid({**spectrum, 2: -0.5 + 0.25j}, grid_cap=64)

def test_psi_series_diagnostics():
    E = generate_polynomial([0, 0, 1], 3000)
    D = decompose(E, dyadic_partition(24))
    sched = blockwise_schedule(D, [min(k, len(b)) for k, b in enumerate(D.blocks)])
    trial = select(E, sched, 71)
    series = psi_series(E, trial, sched, [300, 1000, 3000], grid_cap=2**16)
    assert [p.k for p in series.points] == [300, 1000, 3000]
    for p in series.points:
        sigma = float(sched.sigma_at(p.k))
        n_k = E.elements[p.k - 1]
        assert p.a_k == pytest.approx(math.sqrt(12 * sigma * math.log(n_k)))
    csv = series.to_csv()
    assert csv.startswith("k,psi,")


def test_bernstein_bound_values():
    assert bernstein_bound(1, 1) == pytest.approx(4 * math.exp(-1 / 8))
    assert bernstein_bound(1, 1) == pytest.approx(3.5300, abs=5e-5)
    assert bernstein_bound(100, 60) == pytest.approx(4 * math.exp(-3600 / 640))
    assert bernstein_bound(100, 60) == pytest.approx(0.0144263, abs=5e-7)
    assert bernstein_bound(0, 40) == pytest.approx(4 * math.exp(-10))
    with pytest.raises(ValueError):
        bernstein_bound(1, 0)
    with pytest.raises(ValueError):
        bernstein_bound(-1, 1)


@pytest.mark.parametrize("sigma, a", [(1, math.nan), (1, math.inf), (math.nan, 1), (math.inf, 1)])
def test_bernstein_bound_refuses_non_finite(sigma, a):
    # a NaN bound compares false against every empirical tail
    with pytest.raises(ValueError, match="finite"):
        bernstein_bound(sigma, a)


def test_monte_carlo_bernstein_rademacher():
    report = monte_carlo_bernstein(100, {"kind": "rademacher"}, [30, 101], 20000, 5)
    assert report.sigma == 100.0
    a30 = report.rows[0]
    assert a30[1] == pytest.approx(0.0027, abs=0.002)  # ~3 sigma tail
    assert a30[1] <= a30[2]
    assert report.rows[1][1] == 0.0  # deviation beyond n is impossible
    assert report.all_within_bound


def test_monte_carlo_bernstein_selector():
    report = monte_carlo_bernstein(
        1000, {"kind": "selector", "delta": 0.1}, [50], 20000, 6
    )
    assert report.sigma == pytest.approx(90.0)
    assert report.all_within_bound


def test_monte_carlo_bernstein_validates_boundedness():
    with pytest.raises(ValueError):
        monte_carlo_bernstein(10, {"kind": "uniform", "half_width": 1.5}, [1], 10, 0)
    with pytest.raises(ValueError):
        monte_carlo_bernstein(10, {"kind": "selector", "delta": 1.5}, [1], 10, 0)
    ok = monte_carlo_bernstein(10, {"kind": "uniform", "half_width": 0.5}, [3], 5000, 1)
    assert ok.all_within_bound


def test_summing_matrix_constant_density_is_cesaro():
    E = generate_integers(20)
    sched = uniform_schedule(E, Fraction(1, 3))
    report = summing_matrix_check(sched)
    assert report.all_ok
    row = report.rows[9]  # k = 10
    assert row["row_sum"] == "1/1" and row["variation"] == "1/1"


def test_summing_matrix_harmonic_density_exact():
    E = generate_integers(40)
    sched = decreasing_density_schedule(E, "power_law", alpha=1.0)
    report = summing_matrix_check(sched)
    assert report.all_ok
    assert all(r["row_sum_is_one"] and r["variation_is_one"] for r in report.rows)


def test_summing_matrix_random_nonincreasing_rational():
    rng = random.Random(14)
    for _ in range(10):
        n = rng.randint(3, 30)
        dens = []
        cur = Fraction(1)
        for _ in range(n):
            cur = min(cur, Fraction(rng.randint(1, 64), 64))
            dens.append(cur)
        sched = DensitySchedule(tuple(range(1, n + 1)), tuple(dens))
        assert summing_matrix_check(sched).all_ok


def test_summing_matrix_leaves_the_sigma_memo_as_it_was():
    sched = decreasing_density_schedule(generate_integers(60), "power_law", alpha=1.0)
    memo = dict(sched._sigma)
    assert summing_matrix_check(sched).all_ok
    assert summing_matrix_check(sched, [5, 60]).all_ok
    assert sched._sigma == memo


def test_summing_matrix_flags_increasing_schedule():
    sched = DensitySchedule((1, 2, 3), (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)))
    report = summing_matrix_check(sched)
    assert not report.all_ok
    bad = report.rows[-1]
    assert not bad["variation_is_one"] and not bad["nonincreasing"]
    assert Fraction(bad["variation"]) > 1


def test_summing_matrix_skips_zero_sigma():
    sched = DensitySchedule((1, 2, 3), (Fraction(0), Fraction(0), Fraction(1)))
    report = summing_matrix_check(sched)
    assert report.skipped_zero_sigma == (1, 2)


def test_weyl_report_json():
    E = generate_integers(50)
    r = weyl_means(E, 50, [CirclePoint.rational(1, 2), CirclePoint.angle(0.3)])
    doc = json.loads(r.to_json())
    assert doc["k"] == 50
    assert len(doc["values"]) == 2
    assert doc["excluded"][0] is True


@pytest.mark.parametrize("a, q", [(1, -3), (-1, 3), (-4, -6), (10, -3)])
def test_circle_point_rational_takes_the_sign_of_q_into_a(a, q):
    # a/q turns with q < 0 are -a/-q: every pair above is 2/3
    p = CirclePoint.rational(a, q)
    assert (p.a, p.q) == (2, 3)
    assert p == CirclePoint.parse("2/3")


def test_psi_refuses_a_misaligned_schedule():
    E = generate_integers(100)
    trial = select(E, uniform_schedule(E, Fraction(1, 2)), 5)
    with pytest.raises(ValueError, match="misaligned"):
        psi(E, trial, uniform_schedule(generate_integers(99), Fraction(1, 2)), 10)


def _psi_series_report():
    E = generate_integers(200)
    sched = uniform_schedule(E, Fraction(1, 2))
    return psi_series(E, select(E, sched, 3), sched, [100, 200], grid_cap=2**12)


@pytest.mark.parametrize(
    "make, want",
    [
        pytest.param(
            lambda: sup_norm_via_grid({3**40: 1.0, 1: -1.0}, grid_cap=4096),
            {"coarse_sup": 2.0, "bound": 10.0, "certified": False, "grid_size": 4096, "cap_active": True,
             "max_frequency": str(3**40)},
            id="grid_sup",
        ),
        pytest.param(
            lambda: summing_matrix_check(DensitySchedule((1, 2, 3), (Fraction(0), Fraction(0), Fraction(1)))),
            {"rows": [{"k": 3, "row_sum": "1/1", "row_sum_is_one": True, "variation": "5/1", "variation_is_one": False,
                       "nonincreasing": False, "ok": False}],
             "all_ok": False, "skipped_zero_sigma": [1, 2]},
            id="summing_matrix",
        ),
        pytest.param(
            _psi_series_report, lambda report: {"points": [p.to_json_dict() for p in report.points]}, id="psi_series"
        ),
    ],
)
def test_report_json(make, want):
    report = make()
    doc = report.to_json_dict()
    assert doc == (want(report) if callable(want) else want)
    assert json.loads(json.dumps(doc)) == doc
