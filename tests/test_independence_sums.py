"""is_s_independent decides by the s-multiset sums: a set is s-independent
iff all its C(n + s - 1, s) sums of s-multisets are distinct (a B_s set). A
collision names its witness from the colliding multisets, or hands a dense set
to the witness search, so every report and refusal must equal the search's
own, and sets whose search the budgets refuse are decided when their sums are
distinct."""

import hashlib
import json
import random
from collections import Counter
from itertools import combinations, combinations_with_replacement, islice
from math import perm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import IntegerSet, RelationExplosionError, is_s_independent
from lacunary import relations
from lacunary.relations import P, _find_witness, _multisets, _Residues, _search_reps, _split

import _oracles


def _distinct_sums(elems, s):
    """The B_s property in exact integers."""
    sums = [sum(t) for t in combinations_with_replacement(elems, s)]
    return len(set(sums)) == len(sums)


def _report_tuple(report):
    return report.independent, report.witness_relation, report.witness_elements


# offsets that carry small sets across the int64 edge (max |n| near 2^63) and
# into bignum range; relations see only the differences when sum(c) = 0
_OFFSETS = {
    "signed": (0,),
    "int64_boundary": (2**63 - 41, -(2**63) + 40, 2**62, -(2**62) - 7),
    "bignum": (2**90, -(3**60)),
}


@st.composite
def _sets(draw, max_size):
    kind = draw(st.sampled_from(("signed", "zero", "int64_boundary", "bignum", "scaled")))
    span = draw(st.sampled_from((8, 40, 300)))
    small = draw(st.lists(st.integers(-span, span), max_size=max_size, unique=True))
    if kind == "zero":
        return IntegerSet.from_iterable(set(small[: max_size - 1]) | {0})
    if kind == "scaled":
        return IntegerSet.from_iterable(q * 3**45 for q in small)
    offset = draw(st.sampled_from(_OFFSETS[kind]))
    return IntegerSet.from_iterable(offset + q for q in small)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reports_equal_the_earlier_gate_and_the_sum_test(data):
    s = data.draw(st.sampled_from((2, 3, 4)), label="s")
    E = data.draw(_sets({2: 14, 3: 10, 4: 9}[s]), label="E")
    report = is_s_independent(E, s)
    assert _report_tuple(report) == _oracles.reference_independence(E, s, _search_reps(s))
    assert report.independent == _distinct_sums(E.elements, s)


@pytest.mark.parametrize("n, s", [(1, 1), (1, 4), (5, 1), (6, 2), (7, 3), (5, 4), (30, 2)])
def test_multiset_table_lists_each_multiset_once_in_order(n, s):
    table = _multisets.__wrapped__(n, s)
    assert table.tolist() == [list(t) for t in combinations_with_replacement(range(n), s)]
    assert table.dtype.name == "int32" and not table.flags.writeable


def test_colliding_residue_sums_are_decided_by_their_exact_sums_without_the_search():
    # every multiple of P has residue 0, so all sums collide; the exact sums of
    # the colliding rows differ, so the set is 2-independent, and the one exact
    # collision of {1, 2, 3} names its witness
    spy = mock.patch.object(relations, "_find_witness", wraps=relations._find_witness)
    with spy as find:
        report = is_s_independent([P, 2 * P, 5 * P], 2)
    assert report.independent and not find.called
    with spy as find:
        report = is_s_independent([1, 2, 4], 2)  # sums 2, 3, 4, 5, 6, 8: decided by the sums
    assert report.independent and not find.called
    with spy as find:
        report = is_s_independent([1, 2, 3], 2)  # 1 + 3 = 2 + 2
    assert not report.independent and not find.called
    assert _report_tuple(report) == _oracles.reference_independence(IntegerSet((1, 2, 3)), 2, _search_reps(2))


def test_the_s_cap_is_checked_before_the_sums():
    with pytest.raises(RelationExplosionError):
        is_s_independent([11, 121, 1331], 5)


@pytest.mark.parametrize("seed", [11, 23])
def test_certificates_cases_match_the_earlier_gate(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import INDEPENDENCE_CASES, Certificates

    sets, _ = Certificates(seed)._raw_sets()
    docs = []
    for name, s in INDEPENDENCE_CASES:
        E = IntegerSet.from_iterable(sets[name])
        report = is_s_independent(E, s)
        assert _report_tuple(report) == _oracles.reference_independence(E, s, _search_reps(s)), name
        docs.append(report.to_json_dict())
    digest = hashlib.sha256(json.dumps(docs, sort_keys=True).encode()).hexdigest()
    # the reports' bytes as the witness search alone wrote them
    assert digest == {
        11: "f59dd750356a258c9ec962e6ba1ca500de0e6c2a79d4c79916550a971d06fb09",
        23: "5c8a4c509dabc7805a9696d6dd682d1bde0683f20e0d3f099b520ff70a0c859a",
    }[seed]


@pytest.mark.parametrize(
    "top, s, message",
    [
        (210, 3, r"\|E\|=210, relation length 6 \(enumeration 389283935040 tuples exceeds budgets\)"),
        (2900, 2, r"\|E\|=2900, relation length 4 \(enumeration 24363775800 tuples exceeds budgets\)"),
    ],
    ids=["3^1..3^210-s3", "3^1..3^2900-s2"],
)
def test_sets_the_search_budget_refuses_are_decided_by_their_sums(top, s, message):
    # 3^k is s-independent for s <= 3 (see bench/workloads.py); its
    # C(top + s - 1, s) sums fit MITM_MEMORY_BUDGET, so no search runs
    E = IntegerSet(tuple(3**k for k in range(1, top + 1)))
    with mock.patch.object(relations, "_find_witness", side_effect=AssertionError("searched")):
        assert _report_tuple(is_s_independent(E, s)) == (True, None, None)
    # the search at the longest relation length is past every budget
    longest = max(_search_reps(s), key=len)
    with pytest.raises(ValueError, match=message):
        _find_witness(longest, E, _Residues(E.elements))


def _kernel_outcome(E, s):
    """The witness search over the representatives in turn, as is_s_independent
    ran it before the colliding multisets named the witness: (independent,
    relation, elements), or the refusal message."""
    res = _Residues(E.elements)
    try:
        for coeffs in _search_reps(s):
            witness = _find_witness(coeffs, E, res)
            if witness is not None:
                return False, coeffs, witness
    except ValueError as exc:
        return str(exc)
    return True, None, None


def _outcome(E, s):
    try:
        return _report_tuple(is_s_independent(E, s))
    except ValueError as exc:
        return str(exc)


@st.composite
def _collision_sets(draw, s, max_size):
    """The signed, int64-boundary and bignum sets of _sets, dense subsets of
    1..20, and random sets holding a planted relation: two multisets of up to
    s elements made to sum alike by one new element."""
    kind = draw(st.sampled_from(("sets", "dense", "planted")))
    if kind == "sets":
        return draw(_sets(max_size))
    if kind == "dense":
        return IntegerSet.from_iterable(draw(st.lists(st.integers(1, 20), min_size=3, max_size=max_size, unique=True)))
    offset = draw(st.sampled_from((0, 2**62, 2**90, -(3**60))))
    pool = draw(st.lists(st.integers(-(2**40), 2**40), min_size=2 * s, max_size=max(2 * s, max_size - 1), unique=True))
    left = draw(st.lists(st.sampled_from(pool[:s]), min_size=1, max_size=s))
    right = draw(st.lists(st.sampled_from(pool[s:]), min_size=len(left), max_size=len(left)))
    return IntegerSet.from_iterable({offset + q for q in pool + [sum(left) - sum(right[:-1])]})


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_reports_and_refusals_equal_the_witness_search(data):
    s = data.draw(st.sampled_from((2, 3, 4)), label="s")
    E = data.draw(_collision_sets(s, {2: 14, 3: 10, 4: 9}[s]), label="E")
    assert _outcome(E, s) == _kernel_outcome(E, s)


def _straddle_set(seed):
    """About 135 random 81-bit integers with 3x = a + b + c planted."""
    rng = random.Random(seed)
    elems = {rng.getrandbits(81) for _ in range(132)}
    a, b = rng.sample(sorted(elems), 2)
    x = rng.getrandbits(80)
    return IntegerSet.from_iterable(elems | {x, 3 * x - a - b})


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_a_run_of_equal_coefficients_across_the_split_takes_the_kernels_placement(seed):
    E = _straddle_set(seed)
    coeffs = (-3, 1, 1, 1)
    # the key is (positions 2.., positions ..2): the +1 run straddles the split
    assert coeffs in _search_reps(3) and _split(coeffs, E) == 2
    want = _kernel_outcome(E, 3)
    with mock.patch.object(relations, "_find_witness", side_effect=AssertionError("searched")):
        got = _outcome(E, 3)
    assert got == want and got[1] == coeffs
    # positions 2 and 3 come first in the key and take the two least indices
    # of the run, so position 1 holds its greatest, not its least
    ones = sorted(E.elements.index(q) for q in got[2][1:])
    assert [E.elements.index(q) for q in got[2][1:]] == [ones[2], ones[0], ones[1]]


def test_a_refused_representative_before_the_witness_refuses_the_set():
    # s = 4 on 70 elements: length 7 is past MITM_TIME_BUDGET (perm(70, 4) >
    # 20,000,000) and comes before the planted length-8 relation
    rng = random.Random(7)
    elems = sorted({rng.getrandbits(81) for _ in range(69)})
    a, b, c, d, e, f, g = rng.sample(elems, 7)
    E = IntegerSet.from_iterable(elems + [a + b + c + d - e - f - g])
    message = (
        f"independence search too large: |E|=70, relation length 7 (enumeration {perm(70, 6)} tuples exceeds budgets)"
    )
    with mock.patch.object(relations, "_find_witness", side_effect=AssertionError("searched")):
        assert _outcome(E, 4) == message
    assert _kernel_outcome(E, 4) == message


@pytest.mark.parametrize("seed", [11, 23])
def test_the_certificates_dependent_cases_are_named_without_the_search(seed, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    from workloads import Certificates

    sets, _ = Certificates(seed)._raw_sets()
    for name in ("dfs_dependent", "int64_dependent", "bignum_dependent"):
        E = IntegerSet.from_iterable(sets[name])
        want = _kernel_outcome(E, 2)
        with mock.patch.object(relations, "_find_witness", side_effect=AssertionError("searched")):
            assert _outcome(E, 2) == want, name


def test_dense_small_sets_go_to_the_search_without_the_grouping():
    # a run of g equal sums holds g(g - 1) ordered pairs; where the square of
    # their total passes the 21 sums while twice the g - 1 repeats does not,
    # the set goes to the witness search without grouping the colliding rows
    dense = []
    for elems in islice(combinations(range(1, 21), 6), 3000):
        runs = Counter(a + b for a, b in combinations_with_replacement(elems, 2)).values()
        if (2 * sum(g - 1 for g in runs)) ** 2 <= 21 < sum(g * (g - 1) for g in runs) ** 2:
            dense.append(IntegerSet(elems))
    assert len(dense) == 92
    with mock.patch.object(relations, "_collision_report", side_effect=AssertionError("grouped")):
        for E in dense:
            assert _outcome(E, 2) == _kernel_outcome(E, 2)
