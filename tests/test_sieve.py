import math

import pytest

import egyfrac.sieve
from egyfrac import (
    DomainError,
    IntSet,
    RangeError,
    ResourceLimitError,
    build_table,
    exact_prime_powers,
    factorize,
    is_prime_power,
    largest_prime,
    omega,
)
from helpers import trial_factorize


def test_spf_examples():
    t = build_table(10)
    assert t.spf(10) == 2
    assert t.spf(9) == 3
    assert t.spf(7) == 7
    assert t.is_prime(7) and not t.is_prime(9)


def test_factorize_examples(small_table):
    assert factorize(12, small_table) == [(2, 2), (3, 1)]
    assert factorize(7, small_table) == [(7, 1)]
    assert factorize(360, small_table) == [(2, 3), (3, 2), (5, 1)]


def test_factorize_matches_trial_division(small_table):
    for n in range(2, 10_001):
        assert factorize(n, small_table) == trial_factorize(n)


def test_exact_prime_powers_examples(small_table):
    assert exact_prime_powers(12, small_table) == IntSet([4, 3])
    assert exact_prime_powers(8, small_table) == IntSet([8])
    assert exact_prime_powers(360, small_table) == IntSet([8, 9, 5])


def test_prime_power_product_and_count(small_table):
    for n in range(2, 10_001):
        qs = exact_prime_powers(n, small_table)
        assert math.prod(qs) == n
        assert len(qs) == omega(n, small_table)


def test_omega_examples(small_table):
    assert omega(12, small_table) == 2
    assert omega(2, small_table) == 1
    # oracle: 30030 factors by trial division into six primes
    assert [p for p, _ in trial_factorize(30030)] == [2, 3, 5, 7, 11, 13]
    t = build_table(30030)
    assert omega(30030, t) == 6


def test_largest_prime_examples(small_table):
    assert largest_prime(12, small_table) == 3
    assert largest_prime(7, small_table) == 7
    assert largest_prime(100, small_table) == 5


def test_domain_and_range_errors(small_table, monkeypatch):
    for fn in (factorize, omega, exact_prime_powers, largest_prime):
        with pytest.raises(DomainError):
            fn(1, small_table)
        with pytest.raises(RangeError):
            fn(10_001, small_table)
    with pytest.raises(DomainError):
        build_table(1)
    monkeypatch.setattr(egyfrac.sieve, "_MAX_ENTRIES", 100)
    with pytest.raises(ResourceLimitError):
        build_table(1000)


def test_spf_invariants(small_table):
    for n in range(2, 10_001):
        p = small_table.spf(n)
        assert n % p == 0
        assert small_table.is_prime(p)
        assert small_table.is_prime(n) == (p == n)


def test_primes_between(small_table):
    assert small_table.primes_between(2, 11) == [2, 3, 5, 7, 11]
    assert small_table.primes_between(3.5, 11.5) == [5, 7, 11]
    assert small_table.primes_between(8, 10) == []


def test_primes_list_starts_at_two():
    # spf(0) == 0 once made 0 look like a fixed point of spf
    assert build_table(10).primes.tolist() == [2, 3, 5, 7]
    assert build_table(2).primes.tolist() == [2]


def test_is_prime_power():
    assert is_prime_power(8) and is_prime_power(7) and is_prime_power(9)
    assert not is_prime_power(1)
    assert not is_prime_power(6)
    assert not is_prime_power(12)
