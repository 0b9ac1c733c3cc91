"""The witness kernel's gate against the gate of the searches it replaced:
which order and split each input gets, and which inputs it refuses."""

from contextlib import ExitStack
from math import isqrt, perm
from unittest import mock

import pytest

from lacunary import IndependenceReport, IntegerSet, is_s_independent
from lacunary import relations
from lacunary.relations import DFS_BUDGET, MITM_MEMORY_BUDGET, MITM_TIME_BUDGET, _search_reps

import _oracles

_LARGEST = 20_000
# every budget either gate compares a count of distinct tuples with
_BUDGETS = (DFS_BUDGET, MITM_MEMORY_BUDGET, MITM_TIME_BUDGET, _oracles.MITM_MEMORY_BUDGET)


def _largest_within(k: int, budget: int) -> int:
    """The largest n <= _LARGEST with perm(n, k) <= budget."""
    lo, hi = 0, _LARGEST
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if perm(mid, k) <= budget else (lo, mid - 1)
    return lo


def _gate_sizes() -> list[int]:
    edges = {_largest_within(k, b) for k in range(1, 8) for b in _BUDGETS}
    # the old int64 length-4 gate took n * n <= 8,000,000; below 9, n < m for some length
    edges |= {isqrt(8_000_000), *range(2, 9)}
    return sorted({n + d for n in edges for d in (-1, 0, 1) if 2 <= n + d <= _LARGEST})


def _call(find, coeffs, E, *extra):
    """The (order, split) that `find` runs on E, or its refusal text: each
    search entry point of both gates is swapped for a recorder that finds
    nothing."""
    calls: list = []
    lex = lambda *a, **k: calls.append(("lex", None))
    mitm = lambda c, e, h, *a, **k: calls.append(("mitm", h))
    recorders = [
        (relations, "_dfs_witness", lex),
        (relations, "_mitm_witness", mitm),
        (_oracles, "_dfs_witness", lex),
        (_oracles, "_numpy_witness_m3", lex),
        (_oracles, "_numpy_witness_m4", lambda c, e: calls.append(("mitm", 2))),
        (_oracles, "_mitm_witness", mitm),
    ]
    with ExitStack() as stack:
        for module, name, recorder in recorders:
            stack.enter_context(mock.patch.object(module, name, recorder))
        try:
            assert find(coeffs, E, *extra) is None
        except ValueError as exc:
            return str(exc)
    assert len(calls) <= 1
    return calls[0] if calls else None


# (length, split, sizes) where the merged memory budget searches and the old
# gate refused: non-int64 length 4, length 6 and length 8
_NEW_SEARCHES = ((4, 2, range(1415, 2829)), (6, 3, range(127, 202)), (8, 4, range(40, 55)))


def test_gate_makes_the_earlier_gates_call_at_every_threshold():
    reps = {len(c): c for c in reversed(_search_reps(4))}  # the first representative of each length 3..8
    safe = IntegerSet.from_iterable(range(1, _LARGEST + 1), "safe")
    unsafe = IntegerSet.from_iterable(range(2**61, 2**61 + _LARGEST), "unsafe")
    new_searches = set()
    for source in (safe, unsafe):
        for n in _gate_sizes():
            E = source._part(source.elements[:n], f"{source.label}[:{n}]")
            for m, coeffs in sorted(reps.items()):
                want = _call(_oracles._find_witness, coeffs, E)
                got = _call(relations._find_witness, coeffs, E, None)
                if isinstance(want, str) and not isinstance(got, str):
                    new_searches.add((source.label, m, n))
                    assert any(m == mm and got == ("mitm", h) and n in sizes for mm, h, sizes in _NEW_SEARCHES)
                    assert source is unsafe or m != 4
                else:
                    assert got == want, (source.label, m, n)
    # each range is reached at its ends
    for m, h, sizes in _NEW_SEARCHES:
        for n in (sizes[0], sizes[-1]):
            assert ("unsafe", m, n) in new_searches
            assert ("safe", m, n) in new_searches or m == 4


def test_length_4_past_the_old_pair_budget_finds_its_witness():
    # 1,500 elements past int64 safety at length 4: the old gate refused this
    # set; the merged budget meets in the middle at h = 2
    E = IntegerSet.from_iterable([3**k for k in range(1, 1500)] + [3**900 + 3**600 - 3**7])
    with pytest.raises(ValueError, match=r"relation length 4 \(enumeration 3368253000 tuples exceeds budgets\)"):
        _oracles.reference_independence(E, 2, _search_reps(2))
    report = is_s_independent(E, 2)
    assert not report.independent
    assert report.witness_relation == (-1, -1, 1, 1)
    assert report.witness_elements == (3**600, 3**900, 3**7, 3**900 + 3**600 - 3**7)


@pytest.mark.parametrize(
    "relation, elements, message",
    [((1, -2, 1), (1, 2, 4), "witness does not vanish"), ((1, -2, 1), (2, 2, 2), "witness elements must be distinct")],
    ids=["nonvanishing", "repeated_element"],
)
def test_independence_report_refuses_a_false_witness(relation, elements, message):
    with pytest.raises(ValueError, match=message):
        IndependenceReport(False, 2, relation, elements)
