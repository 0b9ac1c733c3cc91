"""The chunked witness walk's memory, the search representatives, and
relation paths that the other tests never reach."""

import tracemalloc

from lacunary import IntegerSet, count_representations, enumerate_relations, is_s_independent
from lacunary import relations
from lacunary.relations import _mitm_witness, _search_reps


def test_length_8_join_stays_within_its_kept_rows():
    # perm(54, 4) fits MITM_MEMORY_BUDGET; the 54^4 product rows of each table
    # are walked a chunk at a time, so only the 316,251 kept inner rows remain
    relations._first_tuples.cache_clear()
    tracemalloc.start()
    try:
        assert _mitm_witness((-1,) * 4 + (1,) * 4, [3**k for k in range(1, 55)], 4) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        relations._first_tuples.cache_clear()
    assert peak < 64 << 20


def test_search_reps_are_one_per_permutation_and_negation_orbit():
    # the first member of each orbit in enumeration order, ordered by (length, coefficients)
    for s in range(1, 5):
        seen = {}
        for rel in enumerate_relations(s).all_relations():
            c = rel.coefficients
            seen.setdefault(min(tuple(sorted(c)), tuple(sorted(-x for x in c))), c)
        assert _search_reps(s) == tuple(sorted(seen.values(), key=lambda c: (len(c), c)))
    assert [len(_search_reps(s)) for s in range(1, 5)] == [0, 2, 7, 21]


def test_independence_of_a_plain_sequence():
    # an unsorted list is read as the set of its elements: -2 * 5 + 1 + 9 = 0
    dependent = is_s_independent([5, 1, 2, 9], 2)
    assert dependent == is_s_independent(IntegerSet.from_iterable([1, 2, 5, 9]), 2)
    assert (dependent.witness_relation, dependent.witness_elements) == ((-2, 1, 1), (5, 1, 9))
    assert is_s_independent((1, 3, 9, 27), 2).independent


def test_representation_counts_json():
    doc = count_representations(IntegerSet.from_iterable([0, 1, 3]), 2).to_json_dict()
    assert doc == {"s": 2, "moment": "15", "counts": {"0": 1, "1": 2, "2": 1, "3": 2, "4": 2, "6": 1}}
