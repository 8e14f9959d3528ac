import math
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    InconclusiveError,
    IntSet,
    RangeError,
    lambda_exact,
    largest_prime,
    pomerance_set,
    recip_sum,
    verify_report,
    verify_solution_free,
)


def test_pomerance_set_examples(small_table):
    # oracle: check p*ln(p) > C*n directly for every candidate
    expected = []
    for n in range(2, 11):
        p = largest_prime(n, small_table)
        if p * math.log(p) > n:
            expected.append(n)
    assert expected == [3, 5, 7]
    rep = pomerance_set(10, 1, small_table)
    assert rep.members == IntSet(expected)
    assert rep.recip == Fraction(71, 105)
    assert rep.verified_free is None
    assert pomerance_set(10, 100, small_table).members == IntSet([])
    assert pomerance_set(3, 1, small_table).members == IntSet([3])


def test_pomerance_set_errors(small_table):
    with pytest.raises(RangeError):
        pomerance_set(1, 1, small_table)
    with pytest.raises(RangeError):
        pomerance_set(10_001, 1, small_table)
    with pytest.raises(DomainError):
        pomerance_set(10, 0, small_table)


def test_membership_soundness(small_table):
    rep = pomerance_set(500, 1.5, small_table)
    members = set(rep.members)
    for n in range(2, 501):
        p = largest_prime(n, small_table)
        assert (n in members) == (p * math.log(p) > 1.5 * n)


def test_verify_solution_free_examples():
    assert verify_solution_free([3, 5, 7], 10**6) is True
    assert verify_solution_free([2, 3, 6], 10**6) is False
    assert verify_solution_free([], 10**6) is True
    with pytest.raises(DomainError):
        verify_solution_free([2], 0)


def test_verify_inconclusive_raises():
    with pytest.raises(InconclusiveError):
        verify_solution_free([2, 3, 6], 1)


def test_verify_report_fills_fields(small_table):
    rep = verify_report(pomerance_set(50, 1, small_table), 10**6)
    assert rep.verified_free is True
    assert rep.verify_budget == 10**6
    d = rep.to_json_dict()
    assert d["verified_free"] is True and d["size"] == len(rep.members)


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
