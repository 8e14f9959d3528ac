import math
import random

import numpy as np
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
from helpers import trial_factorize, trial_is_prime


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


@pytest.mark.parametrize(
    "elems",
    [list(range(1, 3001)), [1, 2**40, 3 * 5**7, 2**20 * 999_983], [97, 4096, 9973 * 3], []],
    ids=["dense-sieved", "sparse-trial", "small-trial", "empty"],
)
def test_factorize_all_matches_trial_division(elems):
    assert egyfrac.sieve.factorize_all(elems) == {n: trial_factorize(n) for n in elems}


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


def test_largest_primes_matches_trial_division(small_table):
    values = np.array([1, *range(2, 3001), 9973, 2 * 4999, 10_000], dtype=np.int64)
    before = values.copy()
    expected = [trial_factorize(n)[-1][0] if n > 1 else 0 for n in values.tolist()]
    assert small_table.largest_primes(values).tolist() == expected
    assert np.array_equal(values, before)  # peeled on a copy


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
    for q in range(10_001):
        assert is_prime_power(q) == (q >= 2 and len(trial_factorize(q)) == 1), q
    assert is_prime_power(10007**3)
    assert not is_prime_power(10007 * 10009)


@pytest.mark.parametrize("count,ratio", [(255, 8), (256, 8), (256, 9), (1024, 8), (1024, 64)])
def test_factorize_all_sieves_at_most_eight_times_the_count(monkeypatch, count, ratio):
    # both routes give the same factorizations; only 256 or more elements with a
    # max of at most 8 times their count build a table
    rng = random.Random(count * ratio)
    elems = rng.sample(range(2, ratio * count), count - 1) + [ratio * count]
    sieved = []
    build = egyfrac.sieve.build_table
    monkeypatch.setattr(egyfrac.sieve, "build_table", lambda N: sieved.append(N) or build(N))
    assert egyfrac.sieve.factorize_all(elems) == {n: egyfrac.sieve._trial_factorize(n) for n in elems}
    assert sieved == ([ratio * count] if count >= 256 and ratio <= 8 else [])


# N in 2..400, and N at p^2 - 1, p^2 and p^2 + 1 for the primes p <= 101: the edges of
# the sieve's writes, each prime marking its multiples from p^2 on
_SIEVE_BOUNDS = sorted(set(range(2, 401)) | {p * p + d for p in range(2, 102) if trial_is_prime(p) for d in (-1, 0, 1)})


def test_build_table_matches_trial_division():
    top = _SIEVE_BOUNDS[-1]
    spf = [0, 0] + [trial_factorize(n)[0][0] for n in range(2, top + 1)]
    for N in _SIEVE_BOUNDS:
        t = build_table(N)
        assert t._spf.dtype == np.int32 and t._spf.data.format == "i"
        assert t._spf.tolist() == spf[: N + 1], N
        assert t.primes.tolist() == [n for n in range(2, N + 1) if spf[n] == n], N
    for N in _SIEVE_BOUNDS[-12:]:
        # peel divides out one smallest prime factor a round, so each element sees its primes ascending
        got = {n: [] for n in range(2, N + 1)}
        for rows, ps in build_table(N).peel(np.arange(2, N + 1)):
            for i, p in zip(rows.tolist(), ps.tolist()):
                got[i + 2].append(p)
        assert got == {n: [p for p, a in trial_factorize(n) for _ in range(a)] for n in range(2, N + 1)}, N


def test_spf_queries_return_python_ints(small_table):
    assert type(small_table.spf(9999)) is int and small_table.spf(9999) == 3
    assert all(type(p) is int for n in range(2, 50) for p, _ in factorize(n, small_table))
