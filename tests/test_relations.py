import random
from itertools import permutations, product

import pytest

from lacunary import (
    IntegerSet,
    RelationExplosionError,
    count_representations,
    dependence_probability_bound,
    enumerate_relations,
    generate_geometric,
    is_s_independent,
    relation_count,
)

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
    from lacunary.relations import (
        _dfs_witness,
        _mitm_witness,
        _numpy_witness_m3,
        _numpy_witness_m4,
    )

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
            dfs = _dfs_witness(rel, elems, members)
            np3 = _numpy_witness_m3(rel, elems)
            mitm = _mitm_witness(rel, elems, 1)
            assert (dfs is None) == (np3 is None) == (mitm is None)
            for wit in (dfs, np3, mitm):
                check_witness(rel, wit, members)
        for rel in rels4:
            dfs = _dfs_witness(rel, elems, members)
            np4 = _numpy_witness_m4(rel, elems)
            mitm = _mitm_witness(rel, elems, 2)
            assert (dfs is None) == (np4 is None) == (mitm is None)
            for wit in (dfs, np4, mitm):
                check_witness(rel, wit, members)


def test_search_engines_agree_long_relations():
    from lacunary.relations import _dfs_witness, _mitm_witness

    rng = random.Random(23)
    rels = [(2, -1, -1, -1, 1), (1, 1, 1, -1, -1, -1)]
    for _ in range(15):
        elems = IntegerSet.from_iterable(rng.sample(range(1, 60), rng.randint(6, 11))).elements
        members = frozenset(elems)
        for rel in rels:
            dfs = _dfs_witness(rel, elems, members)
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
                assert _dfs_witness(coeffs, elems, E.members) == _first_vanishing(coeffs, product(elems, repeat=m))
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
