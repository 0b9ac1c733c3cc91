import math
import random
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from lacunary import (
    IndependenceReport,
    IntegerSet,
    RelationExplosionError,
    count_representations,
    dependence_probability_bound,
    enumerate_relations,
    generate_geometric,
    is_s_independent,
    relation_count,
)
from lacunary import relations
from lacunary.relations import P, _dfs_witness, _join, _mitm_witness, _search_reps

import _oracles
from _oracles import brute_force_relations, naive_s_independent, relations_grouped


def test_relation_counts_match_brute_force():
    assert relation_count(1) == 0
    assert relation_count(2) == 12
    for s in (1, 2, 3):
        rels = enumerate_relations(s)
        for m in range(3, 2 * s + 1):
            assert sorted(r.coefficients for r in rels.by_m[m]) == sorted(
                brute_force_relations(s, m)
            )


def test_relations_s2_by_length():
    rels = enumerate_relations(2)
    m3 = {r.coefficients for r in rels.by_m[3]}
    assert m3 == set(permutations((2, -1, -1))) | set(permutations((-2, 1, 1)))
    assert len(rels.by_m[3]) == 6
    assert len(rels.by_m[4]) == 6
    assert {r.coefficients for r in rels.by_m[4]} == set(permutations((1, 1, -1, -1)))


def test_relations_empty_beyond_2s():
    rels = enumerate_relations(2)
    assert set(rels.by_m) == {3, 4}
    assert brute_force_relations(2, 5) == []


def test_relation_set_closed_under_permutation_and_negation():
    for s in (2, 3):
        rels = {r.coefficients for r in enumerate_relations(s).all_relations()}
        for coeffs in rels:
            assert tuple(-c for c in coeffs) in rels
            for perm in permutations(coeffs):
                assert perm in rels


def test_relation_invariants():
    for rel in enumerate_relations(3).all_relations():
        assert sum(rel.coefficients) == 0
        assert rel.weight <= 6
        assert all(c != 0 for c in rel.coefficients)


def test_relation_explosion_error():
    with pytest.raises(RelationExplosionError) as err:
        enumerate_relations(9)
    assert err.value.bound > 0
    assert "relation explosion" in str(err.value)


def test_relation_set_canonical_dump():
    doc = enumerate_relations(2).to_json_dict()
    assert doc["count"] == 12
    assert doc["relations"] == sorted(doc["relations"], key=lambda r: (len(r), r))


def test_relation_set_golden_dump_s2():
    assert enumerate_relations(2).to_json_dict()["relations"] == [
        [-2, 1, 1],
        [-1, -1, 2],
        [-1, 2, -1],
        [1, -2, 1],
        [1, 1, -2],
        [2, -1, -1],
        [-1, -1, 1, 1],
        [-1, 1, -1, 1],
        [-1, 1, 1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
        [1, 1, -1, -1],
    ]


def test_relation_representatives_dedupe_permutations():
    reps = enumerate_relations(2).representatives()
    assert len(reps) == 3  # {2,-1,-1}, {-2,1,1}, {1,1,-1,-1} up to ordering
    assert {tuple(sorted(r.coefficients)) for r in reps} == {
        (-2, 1, 1),
        (-1, -1, 2),
        (-1, -1, 1, 1),
    }


def test_independence_examples():
    report = is_s_independent(IntegerSet.from_iterable([1, 2, 3]), 2)
    assert not report.independent
    # 2*2 = 1 + 3 is the arithmetic obstruction
    assert sum(
        c * q for c, q in zip(report.witness_relation, report.witness_elements)
    ) == 0
    assert len(set(report.witness_elements)) == len(report.witness_elements)

    assert is_s_independent(generate_geometric(3, 4), 2).independent
    assert is_s_independent(IntegerSet.from_iterable([5, 9]), 5).independent  # < 3 elements
    assert is_s_independent(IntegerSet.from_iterable(range(1, 50)), 1).independent


def test_independence_deterministic_witness():
    E = IntegerSet.from_iterable(range(1, 30))
    a = is_s_independent(E, 2)
    b = is_s_independent(E, 2)
    assert a.witness_relation == b.witness_relation
    assert a.witness_elements == b.witness_elements


def test_independence_agrees_with_naive_oracle_random_sets():
    rng = random.Random(20260810)
    for s in (2, 3):
        grouped = relations_grouped(s)
        for _ in range(120):
            size = rng.randint(0, 7)
            elems = rng.sample(range(1, 80), size)
            got = is_s_independent(IntegerSet.from_iterable(elems), s).independent
            assert got == naive_s_independent(elems, grouped)


def test_independence_with_negatives_and_zero():
    rng = random.Random(99)
    grouped = relations_grouped(2)
    for _ in range(80):
        elems = rng.sample(range(-40, 41), rng.randint(3, 6))
        got = is_s_independent(IntegerSet.from_iterable(elems), 2).independent
        assert got == naive_s_independent(elems, grouped)


def test_independence_monotone_in_s():
    rng = random.Random(5)
    for _ in range(40):
        elems = rng.sample(range(1, 60), rng.randint(3, 6))
        E = IntegerSet.from_iterable(elems)
        if is_s_independent(E, 3).independent:
            assert is_s_independent(E, 2).independent


def test_appending_element_never_restores_independence():
    rng = random.Random(6)
    for _ in range(40):
        elems = rng.sample(range(1, 60), rng.randint(3, 6))
        E = IntegerSet.from_iterable(elems)
        if not is_s_independent(E, 2).independent:
            extra = rng.choice([n for n in range(1, 80) if n not in E])
            grown = IntegerSet.from_iterable(list(elems) + [extra])
            assert not is_s_independent(grown, 2).independent


def test_independence_engines_agree_on_larger_set():
    # big enough to leave the pure DFS regime for the length-3 relations
    rng = random.Random(11)
    elems = rng.sample(range(1, 10**7), 1600)
    E = IntegerSet.from_iterable(elems)
    report = is_s_independent(E, 2)
    grouped = relations_grouped(2)
    # oracle restricted to the witness length for tractability
    if not report.independent:
        assert sum(
            c * q for c, q in zip(report.witness_relation, report.witness_elements)
        ) == 0
        assert all(q in E for q in report.witness_elements)
    else:
        assert naive_s_independent(elems, {3: grouped[3]})


def test_search_engines_agree_on_existence():
    from lacunary.relations import _dfs_witness, _mitm_witness

    def check_witness(rel, wit, members):
        if wit is None:
            return
        assert sum(c * q for c, q in zip(rel, wit)) == 0
        assert len(set(wit)) == len(wit)
        assert all(q in members for q in wit)

    rng = random.Random(17)
    rels3 = [(2, -1, -1), (-2, 1, 1), (3, -2, -1)]
    rels4 = [(1, 1, -1, -1), (2, 1, -2, -1), (3, -1, -1, -1)]
    for _ in range(30):
        elems = IntegerSet.from_iterable(rng.sample(range(1, 120), rng.randint(5, 18))).elements
        members = frozenset(elems)
        for rel in rels3:
            dfs = _dfs_witness(rel, elems)
            mitm = _mitm_witness(rel, elems, 1)
            assert (dfs is None) == (mitm is None)
            for wit in (dfs, mitm):
                check_witness(rel, wit, members)
        for rel in rels4:
            dfs = _dfs_witness(rel, elems)
            mitm = _mitm_witness(rel, elems, 2)
            assert (dfs is None) == (mitm is None)
            for wit in (dfs, mitm):
                check_witness(rel, wit, members)


def test_search_engines_agree_long_relations():
    from lacunary.relations import _dfs_witness, _mitm_witness

    rng = random.Random(23)
    rels = [(2, -1, -1, -1, 1), (1, 1, 1, -1, -1, -1)]
    for _ in range(15):
        elems = IntegerSet.from_iterable(rng.sample(range(1, 60), rng.randint(6, 11))).elements
        for rel in rels:
            dfs = _dfs_witness(rel, elems)
            mitm = _mitm_witness(rel, elems, len(rel) // 2)
            assert (dfs is None) == (mitm is None)


def _first_vanishing(coeffs, tuples):
    return next((t for t in tuples if len(set(t)) == len(t) and sum(c * q for c, q in zip(coeffs, t)) == 0), None)


def test_search_witness_order_matches_product_enumeration():
    # brute force reports the first vanishing tuple of distinct elements in
    # position order; meet in the middle reports the first right part in that
    # order, joined to the first disjoint left part that cancels it
    from lacunary.relations import _dfs_witness, _mitm_witness, _search_reps

    rng = random.Random(41)
    for s, sets in ((2, 90), (3, 30)):
        for _ in range(sets):
            span = rng.choice([4, 12, 60, 10**6])
            E = IntegerSet.from_iterable(rng.sample(range(-span, span + 1), rng.randint(3, 8)))
            elems = E.elements
            for coeffs in _search_reps(s):
                m = len(coeffs)
                if m > len(elems):
                    continue
                assert _dfs_witness(coeffs, elems) == _first_vanishing(coeffs, product(elems, repeat=m))
                for h in range(1, m):
                    want = None
                    for right in product(elems, repeat=m - h):
                        if len(set(right)) == len(right):
                            want = _first_vanishing(coeffs, (left + right for left in product(elems, repeat=h)))
                            if want is not None:
                                break
                    assert _mitm_witness(coeffs, elems, h) == want


def test_count_representations_examples():
    E = IntegerSet.from_iterable([0, 1, 3])
    rep = count_representations(E, 2)
    assert rep.moment == 15
    assert rep.counts[4] == 2 and rep.counts[2] == 1
    assert count_representations(IntegerSet.from_iterable([17]), 4).moment == 1


def test_count_representations_matches_product_enumeration():
    from itertools import product as iproduct

    rng = random.Random(77)
    for _ in range(15):
        elems = rng.sample(range(0, 40), rng.randint(1, 5))
        E = IntegerSet.from_iterable(elems)
        s = rng.randint(1, 3)
        rep = count_representations(E, s)
        direct = {}
        for tup in iproduct(elems, repeat=s):
            direct[sum(tup)] = direct.get(sum(tup), 0) + 1
        assert rep.counts == direct
        assert rep.moment == sum(r * r for r in direct.values())


def test_count_representations_requires_nonnegative():
    with pytest.raises(ValueError):
        count_representations(IntegerSet.from_iterable([-1, 2]), 2)


@pytest.mark.parametrize("elements", [[1, -5], [-1, 5]], ids=["negative_last", "negative_first"])
def test_count_representations_refuses_a_negative_element_in_any_order(elements):
    # the elements run by |n|, so the negative one need not come first
    with pytest.raises(ValueError, match="nonnegative"):
        count_representations(IntegerSet.from_iterable(elements), 2)


def test_moment_identity_iff_2_independent():
    rng = random.Random(2)
    checked_independent = 0
    for _ in range(200):
        elems = rng.sample(range(0, 61), rng.randint(2, 8))
        E = IntegerSet.from_iterable(elems)
        independent = is_s_independent(E, 2).independent
        moment = count_representations(E, 2).moment
        assert (moment == 2 * len(E) ** 2 - len(E)) == independent
        checked_independent += independent
    assert checked_independent > 20  # both branches exercised


def test_dependence_bound_values():
    assert dependence_probability_bound(2, 2, 4096) == pytest.approx(0.046875)
    assert dependence_probability_bound(2, 0, 100) == 0.0
    assert dependence_probability_bound(2, 4, 4096) == pytest.approx(0.75)
    assert dependence_probability_bound(2, 64, 4096) > 1  # vacuous but legal


def test_dependence_bound_preconditions():
    with pytest.raises(ValueError):
        dependence_probability_bound(2, 5, 4)
    with pytest.raises(ValueError):
        dependence_probability_bound(1, 1, 10)
    with pytest.raises(ValueError):
        dependence_probability_bound(2, -1, 10)


def test_independence_report_json():
    report = is_s_independent(IntegerSet.from_iterable([1, 2, 3]), 2)
    doc = report.to_json_dict()
    assert doc["independent"] is False
    assert all(isinstance(x, str) for x in doc["witness_elements"])


# -- the residue-join kernel against the searches it replaced -------------------

# element spans: tiny (dense, mostly dependent), int64-safe, past int64 safety,
# and bignums at or above 2^63
_SPANS = (8, 40, 2**40, 2**62, 2**64, 2**90)


@st.composite
def _integer_sets(draw, max_size):
    """Sets of int64, negative, zero, bignum or mixed elements; a scale factor
    carries small dependent sets into bignum range."""
    spans = draw(st.lists(st.sampled_from(_SPANS), min_size=1, max_size=2))
    elems = draw(st.lists(st.one_of(*(st.integers(-s, s) for s in spans)), max_size=max_size, unique=True))
    scale = draw(st.sampled_from((1, 1, 3**45, -(2**64) - 1)))
    return IntegerSet.from_iterable(q * scale for q in elems)


def _report_tuple(report):
    return report.independent, report.witness_relation, report.witness_elements


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_independence_reports_match_the_earlier_searches(data):
    s = data.draw(st.sampled_from((2, 3, 4)), label="s")
    E = data.draw(_integer_sets({2: 14, 3: 10, 4: 9}[s]), label="E")
    want = _oracles.reference_independence(E, s, _search_reps(s))
    assert _report_tuple(is_s_independent(E, s)) == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_both_orders_match_the_earlier_searches_at_every_split(data):
    s = data.draw(st.sampled_from((2, 3)), label="s")
    E = data.draw(_integer_sets(8), label="E")
    # small chunks and batches put their boundaries inside these little tables
    rows, batch = data.draw(st.sampled_from(((relations._ROWS, relations._BATCH), (7, 5), (2, 1))), label="sizes")
    elems = E.elements
    with mock.patch.object(relations, "_ROWS", rows), mock.patch.object(relations, "_BATCH", batch):
        relations._first_tuples.cache_clear()
        try:
            for rep in _search_reps(s):
                # a permuted representative puts equal coefficients apart
                coeffs = tuple(data.draw(st.permutations(rep), label="coefficients"))
                m = len(coeffs)
                if m > len(elems):
                    continue
                want = _oracles._dfs_witness(coeffs, elems, E.members)
                assert _dfs_witness(coeffs, elems) == want
                for h in range(m):
                    assert _join(coeffs, elems, h, True) == want
                for h in range(1, m):
                    assert _mitm_witness(coeffs, elems, h) == _oracles._mitm_witness(coeffs, elems, h)
        finally:
            relations._first_tuples.cache_clear()


@pytest.mark.parametrize("scale", [1, 3**45], ids=["1", "3^45"])
@pytest.mark.parametrize("s, n", [(2, 40), (3, 24)])
@pytest.mark.parametrize("rows, batch", [(7, 5), (2, 1)])
def test_witnesses_through_long_runs_of_equal_sums(scale, s, n, rows, batch):
    # on a progression many inner tuples share a sum, so a matched target's
    # run of sorted sums spans chunk and batch ends, and its first rows share
    # indices with the outer tuple
    elems = IntegerSet.from_iterable(q * scale for q in range(1, n + 1)).elements
    members = frozenset(elems)
    with mock.patch.object(relations, "_ROWS", rows), mock.patch.object(relations, "_BATCH", batch):
        relations._first_tuples.cache_clear()
        try:
            for rep in _search_reps(s):
                for coeffs in (rep, rep[::-1]):
                    m = len(coeffs)
                    want = _oracles._dfs_witness(coeffs, elems, members)
                    assert _dfs_witness(coeffs, elems) == want
                    # inner tables of one and two positions keep the walk short
                    for h in range(max(m - 2, 0), m):
                        assert _join(coeffs, elems, h, True) == want
                    for h in (1, 2):
                        assert _mitm_witness(coeffs, elems, h) == _oracles._mitm_witness(coeffs, elems, h)
        finally:
            relations._first_tuples.cache_clear()


def test_independence_reports_match_the_earlier_searches_on_every_path():
    # sets large enough that the budgets pick each order: int64 sets past the
    # brute-force budget at lengths 3 and 4, bignum sets at a meet-in-the-middle
    # split of 1, 2 and 3, independent and dependent
    rng = random.Random(15)
    powers = [3**k for k in range(1, 201)]
    int64_set = rng.sample(range(1 << 40, 1 << 50), 256)
    p, q, r = (rng.randrange(1 << 45, 1 << 46) for _ in range(3))
    cases = [
        (int64_set, 2),
        (int64_set + [p, q, r, p + q - r], 2),
        (rng.sample(range(1, 10**7), 1500), 2),
        (powers, 2),
        (powers + [3**150 + 3**120 - 3**7], 2),
        (powers[:40], 3),
        ([2**70 * k for k in (1, 2, 3)] + [3**k for k in range(50, 1550)], 2),
    ]
    for elems, s in cases:
        E = IntegerSet.from_iterable(elems)
        want = _oracles.reference_independence(E, s, _search_reps(s))
        assert _report_tuple(is_s_independent(E, s)) == want


def _is_prime(n):
    if n < 2:
        return False
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    # these bases decide primality for every n < 3.3 * 10^24
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == a:
            return True
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_residue_modulus_is_prime_and_keeps_powers_of_two_apart():
    assert P < 2**63 and _is_prime(P)
    # P - 1 = 2 * 3^4 * 17 * 23 * 319279 * 456065899
    factors = {2: 1, 3: 4, 17: 1, 23: 1, 319279: 1, 456065899: 1}
    assert math.prod(f**e for f, e in factors.items()) == P - 1
    assert all(_is_prime(f) for f in factors)
    # 3 is a primitive root; 2 has order (P - 1) / 2
    assert all(pow(3, (P - 1) // f, P) != 1 for f in factors)
    assert pow(2, (P - 1) // 2, P) == 1
    assert all(pow(2, (P - 1) // (2 * f), P) != 1 for f in factors if f != 2)
    seen, x = set(), 1
    for _ in range(10**5):
        seen.add(x)
        x = 2 * x % P
    assert len(seen) == 10**5


def test_independence_on_powers_and_multiples_of_the_modulus():
    # powers of 2 and 3 up to exponent 300 wrap around P many times, and every
    # multiple of P has residue 0, so each residue match there is checked exactly
    rng = random.Random(2026)
    grouped = {s: relations_grouped(s) for s in (2, 3)}
    multiples = [k * P for k in range(-30, 31) if k]
    for pool in ([2**a for a in range(1, 301)], [3**a for a in range(1, 301)], multiples):
        for _ in range(40):
            size = rng.randint(3, 6)
            if rng.random() < 0.5:
                start = rng.randrange(len(pool) - size)
                elems = pool[start : start + size]
            else:
                elems = rng.sample(pool, size)
            E = IntegerSet.from_iterable(elems)
            for s in (2, 3):
                report = is_s_independent(E, s)
                assert report.independent == naive_s_independent(elems, grouped[s])
                assert _report_tuple(report) == _oracles.reference_independence(E, s, _search_reps(s))


_REFUSAL = (
    "independence search too large: |E|=4473, relation length 3 "
    "(enumeration 20003256 tuples exceeds budgets)"
)


def test_independence_budget_refusal():
    E = IntegerSet(tuple(3**k for k in range(1, 4474)))
    with pytest.raises(ValueError) as err:
        is_s_independent(E, 2)
    assert str(err.value) == _REFUSAL


def test_cli_independence_budget_refusal_exits_3(tmp_path, capsys):
    from lacunary.cli import EXIT_PRECONDITION, main

    setfile = tmp_path / "powers.lines"
    setfile.write_text("".join(f"{3**k}\n" for k in range(1, 4474)))
    assert main(["independence", "--set", str(setfile), "--s", "2"]) == EXIT_PRECONDITION
    assert _REFUSAL in capsys.readouterr().err


@pytest.mark.parametrize(
    "relation, elements",
    [((1, -2, 1), None), (None, (1, 2, 3))],
    ids=["relation_without_elements", "elements_without_relation"],
)
def test_independence_report_refuses_a_half_witness(relation, elements):
    with pytest.raises(ValueError, match="witness present iff dependent"):
        IndependenceReport(relation is None, 2, relation, elements)
