import math
from fractions import Fraction

import pytest

from lacunary import (
    IntegerSet,
    Partition,
    decompose,
    dyadic_partition,
    generate_integers,
    generate_polynomial,
    generate_primes,
    gross_partition,
    verify_block_growth,
)


def test_dyadic_cut_points():
    P = dyadic_partition(3)
    assert P.cut_points == (1, 2, 4, 8)
    assert P.block_interval(2) == (2, 4)  # positive side of [-4,-2) u (2,4]
    assert P.block_size(2) == 4


def test_dyadic_k1_blocks():
    P = dyadic_partition(1)
    assert P.cut_points == (1, 2)
    assert P.block_of(1) == 0 and P.block_of(-1) == 0
    assert P.block_of(2) == 1 and P.block_of(-2) == 1
    assert P.block_of(3) is None


def test_dyadic_annulus_sizes():
    P = dyadic_partition(10)
    for k in range(1, 11):
        # count integers in the annulus directly
        hi, lo = 2**k, 2 ** (k - 1)
        direct = 2 * (hi - lo)
        assert P.block_size(k) == direct == 2**k


def test_gross_factorial_cut_points():
    P = gross_partition(4)
    assert P.cut_points == (2**1, 2**2, 2**6, 2**24)
    assert P.kind == "gross"
    P5 = gross_partition(5)
    assert P5.cut_points[-1] == 2**120  # exact bignum


def test_gross_single_cut():
    P = gross_partition(1)
    assert P.cut_points == (2,)
    assert P.block_of(2) == 0
    assert P.block_of(3) is None  # everything beyond [-2,2] is remainder


def test_gross_custom_exponents_validated():
    gross_partition(3, exponents=[2, 4, 9, 21])
    with pytest.raises(ValueError, match="ratio"):
        gross_partition(3, exponents=[2, 3, 4])  # ratios 1.5, 1.33 too slow
    with pytest.raises(ValueError):
        gross_partition(3, exponents=[4, 4, 9])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: gross_partition(3, exponents=[2, 8, 16]), "ratios must be nondecreasing"),  # ratios 4, 2
        (lambda: gross_partition(8), "k_max: cut 2\\^40320 is past 2\\^14284"),
        (lambda: gross_partition(30), "k_max: cut 2\\^40320 is past 2\\^14284"),
        (lambda: gross_partition(1, exponents=[2, 4, 10**21]), "exponents: cut 2\\^1000000000000000000000 is past"),
        (lambda: dyadic_partition(14_285), "k_max: cut 2\\^14285 is past 2\\^14284"),
        (lambda: dyadic_partition(10**12), "k_max: cut 2\\^14285 is past 2\\^14284"),
    ],
    ids=["decreasing_ratio", "gross_k_max_8", "gross_k_max_30", "gross_exponent_1e21", "dyadic_k_max_14285", "dyadic_k_max_1e12"],
)
def test_partition_builders_refuse_naming_the_key(build, message):
    # a cut past 2^14284 has more than the 4,300 digits Python writes an int in
    with pytest.raises(ValueError, match=message):
        build()


def test_partition_cuts_up_to_2_14284_unchanged():
    for k_max in range(1, 8):
        assert gross_partition(k_max).cut_points == tuple(2 ** math.factorial(k) for k in range(1, k_max + 1))
    assert gross_partition(1, exponents=[3, 14_284]).cut_points == (8, 2**14284)
    P = dyadic_partition(14_284)
    assert P.cut_points == tuple(2**k for k in range(14_285))
    assert len(P.to_json_dict()["cut_points"][-1]) == 4300


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: Partition((1.5, 3), "custom"), "cut points must be integers, got 1.5", id="cut_1.5"),
        pytest.param(lambda: Partition((True, 3), "custom"), "cut points must be integers, got True", id="cut_true"),
        pytest.param(lambda: Partition((1, Fraction(7, 2)), "custom"), "got Fraction", id="cut_7/2"),
        pytest.param(lambda: gross_partition(3, exponents=[2, 4.5, 9]), "exponents must be integers, got 4.5", id="exponent_4.5"),
        pytest.param(lambda: gross_partition(3, exponents=[True, 4, 9]), "exponents must be integers, got True", id="exponent_true"),
    ],
)
def test_non_integral_cut_points_refused(build, message):
    # int() would cut 1.5 to 1, and gross exponent 4.5 to 4, without a word
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
def test_non_finite_cut_points_and_exponents_refused(bad):
    # int() raises OverflowError on inf and an unnamed ValueError on nan
    with pytest.raises(ValueError, match=f"exponents must be integers, got {bad!r}"):
        gross_partition(3, [2, 5, bad])
    with pytest.raises(ValueError, match=f"cut points must be integers, got {bad!r}"):
        Partition((1, bad), "custom")


def test_integral_cut_points_of_other_types_kept():
    assert Partition((1.0, Fraction(6, 2), 7), "custom").cut_points == (1, 3, 7)
    assert gross_partition(3, exponents=[2.0, 4, 9]).cut_points == (4, 16, 512)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((4, 2), "custom")
    with pytest.raises(ValueError):
        Partition((), "custom")
    with pytest.raises(ValueError):
        Partition((1, 2), "nonsense")


@pytest.mark.parametrize("cuts", [(1, 2, 4, 8), (2, 4, 64), (3, 10, 100)])
def test_blocks_disjoint_and_cover(cuts):
    P = Partition(cuts, "custom")
    top = cuts[-1]
    for n in range(-top, top + 1):
        k = P.block_of(n)
        assert k is not None
        lo, hi = P.block_interval(k)
        if k == 0:
            assert abs(n) <= hi
        else:
            assert lo < abs(n) <= hi
    # each integer lands in exactly one block by construction of block_of;
    # cross-check totals
    assert sum(P.block_size(k) for k in range(P.block_count)) == 2 * top + 1


def test_decompose_example():
    E = IntegerSet.from_iterable([1, 3, 5, 9])
    D = decompose(E, dyadic_partition(4))
    assert [b.elements for b in D.blocks] == [(1,), (), (3,), (5,), (9,)]
    assert len(D.remainder) == 0


def test_decompose_empty_set():
    D = decompose(IntegerSet(()), dyadic_partition(3))
    assert all(len(b) == 0 for b in D.blocks)


def test_decompose_primes_total():
    E = generate_primes(2**10)
    D = decompose(E, dyadic_partition(10))
    assert sum(len(b) for b in D.blocks) == 172
    assert len(D.remainder) == 0


def test_decompose_cardinality_with_remainder():
    E = IntegerSet.from_iterable(range(-20, 21))
    D = decompose(E, dyadic_partition(3))
    assert sum(len(b) for b in D.blocks) + len(D.remainder) == len(E)
    assert D.remainder.elements == tuple(
        sorted((n for n in range(-20, 21) if abs(n) > 8), key=lambda n: (abs(n), n))
    )


def test_decompose_negative_elements_split_by_magnitude():
    E = IntegerSet.from_iterable([-3, 3, -5, 7])
    D = decompose(E, dyadic_partition(3))
    assert D.blocks[2].elements == (-3, 3)
    assert D.blocks[3].elements == (-5, 7)


@pytest.mark.parametrize("source", ["primes", "geometric"])
def test_decompose_blocks_equal_validated_sets(source):
    # blocks are cut without a second order check; each must equal the set
    # the validating constructor builds, dtype of its array included
    if source == "primes":
        E, P = generate_primes(2**12), dyadic_partition(10)
    else:
        E, P = IntegerSet(tuple(3**k for k in range(1, 60)), "3^k"), dyadic_partition(80)
    D = decompose(E, P)
    for blk in (*D.blocks, D.remainder):
        ref = IntegerSet(blk.elements, blk.label)
        assert blk == ref
        assert blk.array.dtype == ref.array.dtype and blk.array.tolist() == ref.array.tolist()
    assert D.blocks[3].label == f"{E.label}|block3" and D.remainder.label == f"{E.label}|remainder"
    assert sum(map(len, D.blocks)) + len(D.remainder) == len(E)


def test_verify_block_growth_full_integers():
    E = generate_integers(2**10)
    D = decompose(E, dyadic_partition(10))
    report = verify_block_growth(D)
    # positive half of every annulus is full: |E_k| = |I_k| / 2
    for k, ratio in enumerate(report.ratios):
        if k >= 1:
            assert ratio == pytest.approx(
                math.log(2 ** (k - 1)) / math.log(2**k) if k > 1 else 0.0, abs=1e-12
            )


def test_verify_block_growth_signed_integers_ratio_one():
    E = IntegerSet.from_iterable(range(-(2**8), 2**8 + 1))
    D = decompose(E, dyadic_partition(8))
    report = verify_block_growth(D)
    assert all(r == pytest.approx(1.0) for r in report.ratios[1:])


def test_verify_block_growth_squares_tail():
    E = generate_polynomial([0, 0, 1], 10**4)
    D = decompose(E, dyadic_partition(27))
    report = verify_block_growth(D, tail_start=18)
    # analytic oracle: |E_k| = isqrt(2^k) - isqrt(2^(k-1)), capped at the
    # truncation k <= 10^4
    for k in range(1, 28):
        expected = min(math.isqrt(2**k), 10**4) - min(math.isqrt(2 ** (k - 1)), 10**4)
        got = len(D.blocks[k])
        assert got == expected
    assert report.min_tail_ratio is not None
    assert report.min_tail_ratio >= 0.4
    assert report.empty_tail_blocks == ()


def test_verify_block_growth_flags_empty_blocks():
    # gap set: nothing between 2^5 and 2^16
    vals = list(range(2, 33)) + list(range(2**16, 2**16 + 100))
    E = IntegerSet.from_iterable(vals)
    D = decompose(E, dyadic_partition(17))
    report = verify_block_growth(D)
    assert len(report.empty_tail_blocks) >= 5
    assert all(report.ratios[k] is None for k in report.empty_tail_blocks)


def test_partition_json_round_trip():
    P = gross_partition(5)
    back = Partition.from_json(P.to_json())
    assert back == P
    doc = P.to_json_dict()
    assert doc["cut_points"][-1] == str(2**120)


@pytest.mark.parametrize(
    "doc, names",
    [
        ({}, "cut_points"),
        ({"kind": "dyadic", "cut_points": 5}, "key 'cut_points'"),
        ({"kind": 5, "cut_points": ["2"]}, "key 'kind'"),
        ({"kind": "dyadic", "cut_points": ["x"]}, "key 'cut_points'"),
    ],
    ids=["empty", "cuts_not_a_list", "kind_not_a_string", "cut_not_an_integer"],
)
def test_partition_json_refusals_name_the_key(doc, names):
    with pytest.raises(ValueError, match=names):
        Partition.from_json_dict(doc)


def test_decomposition_json_counts():
    E = generate_primes(100)
    D = decompose(E, dyadic_partition(7))
    doc = D.to_json_dict()
    assert doc["blocks"][3]["set_size"] == len(D.blocks[3])
