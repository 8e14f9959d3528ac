import math
import tracemalloc
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    InconclusiveError,
    IntSet,
    RangeError,
    SolverStatus,
    build_table,
    find_subset,
    lambda_exact,
    pomerance_set,
    recip_sum,
    verify_solution_free,
)
from helpers import trial_factorize


def test_pomerance_set_examples(small_table):
    # oracle: check p*ln(p) > C*n directly for every candidate
    expected = []
    for n in range(2, 11):
        p = trial_factorize(n)[-1][0]
        if p * math.log(p) > n:
            expected.append(n)
    assert expected == [3, 5, 7]
    rep = pomerance_set(10, 1, small_table)
    assert rep.members == IntSet(expected)
    assert rep.recip == Fraction(71, 105)
    assert pomerance_set(10, 100, small_table).members == IntSet([])
    assert pomerance_set(3, 1, small_table).members == IntSet([3])


def test_pomerance_set_errors(small_table):
    with pytest.raises(RangeError):
        pomerance_set(1, 1, small_table)
    with pytest.raises(RangeError):
        pomerance_set(10_001, 1, small_table)
    with pytest.raises(DomainError):
        pomerance_set(10, 0, small_table)
    # every comparison with NaN is false: a NaN C used to pass the check and give an empty set
    with pytest.raises(DomainError):
        pomerance_set(10, float("nan"), small_table)


def test_membership_soundness(small_table):
    for N, C in ((500, 1.5), (10_000, 1)):
        members = set(pomerance_set(N, C, small_table).members)
        for n in range(2, N + 1):
            p = trial_factorize(n)[-1][0]
            assert (n in members) == (p * math.log(p) > C * n)


def test_verify_solution_free_examples():
    assert verify_solution_free([3, 5, 7], 10**6) is True
    assert verify_solution_free([2, 3, 6], 10**6) is False
    assert verify_solution_free([], 10**6) is True
    with pytest.raises(DomainError):
        verify_solution_free([2], 0)


def test_verify_inconclusive_raises():
    with pytest.raises(InconclusiveError):
        verify_solution_free([2, 3, 6], 1)


def test_pomerance_set_at_50_is_solution_free(small_table):
    assert verify_solution_free(pomerance_set(50, 1, small_table).members, 10**6) is True


def test_curve_nondecreasing(small_table):
    vals = [pomerance_set(N, 1, small_table).recip for N in range(2, 300)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_curve_below_exact_lambda(small_table):
    # the construction is one admissible set, so it cannot beat the optimum
    for N in range(2, 31):
        constructed = pomerance_set(N, 1, small_table).recip
        exact, _ = lambda_exact(N)
        assert constructed <= exact


def test_pomerance_solution_free_small(small_table):
    for N in (25, 50, 100):
        rep = pomerance_set(N, 1, small_table)
        assert verify_solution_free(rep.members, 10**7), N
        assert recip_sum(rep.members) == rep.recip


def test_verify_pomerance_3000_without_recursion_limit(small_table):
    # 1031 members: the recursive search raised RecursionError here
    members = pomerance_set(3000, 1, small_table).members
    assert len(members) > 1000
    assert verify_solution_free(members, 10**6) is True


def test_auto_search_proves_pomerance_set_free_without_nodes(small_table):
    # every element fails some prime's p-adic condition, so the core is empty;
    # the search over the whole set spent 40,041 nodes
    res = find_subset(pomerance_set(10**4, 1, small_table).members, 1)
    assert res.status == SolverStatus.EXHAUSTED_NONE
    assert res.nodes_explored == 0


def test_verify_pomerance_30000_memory():
    # 8986 members: the search over all of them holds a weight and a suffix
    # sum of about 43,000 bits (the bits of the lcm) per element, and peaked
    # at 101 MB under tracemalloc; the reduction leaves nothing to search
    members = pomerance_set(30_000, 1, build_table(30_000)).members
    tracemalloc.start()
    try:
        assert verify_solution_free(members, 10**6) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20
