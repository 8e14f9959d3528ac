import random
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    IntSet,
    build_decomposition,
    exact_prime_powers,
    omega,
    ppowers_in_set,
    qsum_check,
    rec_sum_q,
    subset_aq,
)


def test_subset_aq_examples(small_table):
    assert subset_aq([4, 8, 12], 4, small_table) == IntSet([4, 12])
    assert subset_aq([2, 6, 4], 2, small_table) == IntSet([2, 6])
    assert subset_aq([3, 5], 7, small_table) == IntSet([])
    with pytest.raises(DomainError):
        subset_aq([2, 3], 6, small_table)


def test_ppowers_in_set_examples(small_table):
    assert ppowers_in_set([12, 18], small_table) == IntSet([2, 3, 4, 9])
    assert ppowers_in_set([], small_table) == IntSet([])
    assert ppowers_in_set([8], small_table) == IntSet([8])
    with pytest.raises(DomainError):
        ppowers_in_set([1, 8], small_table)


def test_rec_sum_q_examples(small_table):
    assert rec_sum_q([12, 36], 4, small_table) == Fraction(4, 9)
    assert rec_sum_q([4], 4, small_table) == Fraction(1)
    assert rec_sum_q([3, 5], 7, small_table) == Fraction(0)


def test_qsum_check_examples(small_table):
    # oracle: explicit sum over the prime powers of {12, 18}
    oracle = sum((Fraction(1, q) for q in (2, 3, 4, 9)), Fraction(0))
    assert oracle == Fraction(43, 36)
    assert qsum_check([12, 18], small_table) == oracle
    assert qsum_check([8], small_table) == Fraction(1, 8)
    assert qsum_check([], small_table) == Fraction(0)


def test_double_counting_identity(small_table):
    rng = random.Random(11)
    for _ in range(50):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 30)))
        qs = ppowers_in_set(A, small_table)
        lhs = sum((rec_sum_q(A, q, small_table) / q for q in qs), Fraction(0))
        rhs = sum((Fraction(omega(n, small_table), n) for n in A), Fraction(0))
        assert lhs == rhs


def test_class_size_partition(small_table):
    rng = random.Random(12)
    for _ in range(30):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 30)))
        qs = ppowers_in_set(A, small_table)
        assert sum(len(subset_aq(A, q, small_table)) for q in qs) == sum(
            omega(n, small_table) for n in A
        )


def test_build_decomposition_invariants(small_table):
    rng = random.Random(13)
    for _ in range(20):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 25)))
        dec = build_decomposition(A, small_table)
        assert dec.qset == ppowers_in_set(A, small_table)
        assert set(dec.parts) == set(dec.qset)
        for q, members in dec.parts.items():
            assert len(members) > 0
            assert members == subset_aq(A, q, small_table)
        for n in A:
            owners = IntSet(q for q, members in dec.parts.items() if n in members)
            assert owners == exact_prime_powers(n, small_table)


def test_decomposition_json_shape(small_table):
    dec = build_decomposition([12, 18], small_table)
    d = dec.to_json_dict()
    assert d["base"] == [12, 18]
    assert d["qset"] == [2, 3, 4, 9]
    assert d["parts"]["4"] == [12]
    assert d["parts"]["2"] == [18]
