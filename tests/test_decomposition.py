import random
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    IntSet,
    RangeError,
    build_decomposition,
    omega,
)
from helpers import fraction_masses, trial_prime_powers


def test_subset_aq_examples(small_table):
    # the class A_q of each q, read off the decomposition; 7 divides no element, so it has no part
    assert build_decomposition([4, 8, 12], small_table).parts[4] == IntSet([4, 12])
    assert build_decomposition([2, 6, 4], small_table).parts[2] == IntSet([2, 6])
    assert 7 not in build_decomposition([3, 5], small_table).parts


def test_ppowers_in_set_examples(small_table):
    assert build_decomposition([12, 18], small_table).qset == IntSet([2, 3, 4, 9])
    assert build_decomposition([], small_table).qset == IntSet([])
    assert build_decomposition([8], small_table).qset == IntSet([8])


def test_build_decomposition_refusals(small_table):
    # 1 has no prime-power divisors, and 10_001 is past the table
    with pytest.raises(DomainError, match="^element 1 has no prime-power divisors$"):
        build_decomposition([1, 8], small_table)
    with pytest.raises(RangeError):
        build_decomposition([2, 10_001], small_table)


def _class_masses(A, t):
    """mass(A; q) = sum of q/n over the class of q, for every part of A's decomposition."""
    parts = build_decomposition(A, t).parts
    return {q: sum((Fraction(q, n) for n in members), Fraction(0)) for q, members in parts.items()}


def test_rec_sum_q_examples(small_table):
    assert _class_masses([12, 36], small_table)[4] == Fraction(4, 9)
    assert _class_masses([4], small_table)[4] == Fraction(1)
    assert 7 not in _class_masses([3, 5], small_table)
    for A in ([12, 36], [4], [3, 5], [6, 10, 45, 1024]):
        assert _class_masses(A, small_table) == fraction_masses(A)


def test_qsum_check_examples(small_table):
    # oracle: explicit sum over the prime powers of {12, 18}
    oracle = sum((Fraction(1, q) for q in (2, 3, 4, 9)), Fraction(0))
    assert oracle == Fraction(43, 36)
    for A, qsum in (([12, 18], oracle), ([8], Fraction(1, 8)), ([], Fraction(0))):
        assert sum((Fraction(1, q) for q in build_decomposition(A, small_table).qset), Fraction(0)) == qsum


def test_double_counting_identity(small_table):
    # sum over q of mass(A; q)/q counts 1/n once for each of n's omega(n) classes
    rng = random.Random(11)
    for _ in range(50):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 30)))
        parts = build_decomposition(A, small_table).parts
        lhs = sum((Fraction(1, n) for members in parts.values() for n in members), Fraction(0))
        rhs = sum((Fraction(omega(n, small_table), n) for n in A), Fraction(0))
        assert lhs == rhs


def test_class_size_partition(small_table):
    rng = random.Random(12)
    for _ in range(30):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 30)))
        parts = build_decomposition(A, small_table).parts
        assert sum(len(members) for members in parts.values()) == sum(omega(n, small_table) for n in A)


def test_build_decomposition_invariants(small_table):
    # checked against trial division, which shares no code with the sieve's prime powers
    rng = random.Random(13)
    for _ in range(20):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 25)))
        dec = build_decomposition(A, small_table)
        assert dec.qset == IntSet(fraction_masses(A))
        assert set(dec.parts) == set(dec.qset)
        for q, members in dec.parts.items():
            assert len(members) > 0
            assert members == IntSet(n for n in A if q in trial_prime_powers(n))
        for n in A:
            owners = IntSet(q for q, members in dec.parts.items() if n in members)
            assert owners == IntSet(trial_prime_powers(n))


def test_decomposition_json_shape(small_table):
    dec = build_decomposition([12, 18], small_table)
    d = dec.to_json_dict()
    assert d["base"] == [12, 18]
    assert d["qset"] == [2, 3, 4, 9]
    assert d["parts"]["4"] == [12]
    assert d["parts"]["2"] == [18]
