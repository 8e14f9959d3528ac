import math
import random
import tracemalloc

import numpy as np
import pytest

import egyfrac.sieve
from egyfrac import (
    DomainError,
    RangeError,
    ResourceLimitError,
    build_table,
    factorize,
    omega,
)
from egyfrac.sieve import _prime_powers_each
from helpers import trial_factorize, trial_is_prime, trial_prime_powers


def test_spf_examples():
    t = build_table(10)
    assert t.spf(10) == 2
    assert t.spf(9) == 3
    assert t.spf(7) == 7
    assert [n for n in range(2, 11) if t.spf(n) == n] == [n for n in range(2, 11) if trial_is_prime(n)]


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
    assert _prime_powers_each([8, 12, 360], small_table) == [[8], [3, 4], [5, 8, 9]]
    assert _prime_powers_each([], small_table) == []


def test_prime_power_product_and_count(small_table):
    elems = range(2, 10_001)
    for n, qs in zip(elems, _prime_powers_each(elems, small_table)):
        assert qs == sorted(trial_prime_powers(n))
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


def test_domain_and_range_errors(small_table, monkeypatch):
    for fn in (factorize, omega, lambda n, t: _prime_powers_each([n], t)):
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
        assert trial_is_prime(p)
        assert trial_is_prime(n) == (p == n)


def test_primes_between(small_table):
    assert small_table.primes_between(2, 11) == [2, 3, 5, 7, 11]
    assert small_table.primes_between(3.5, 11.5) == [5, 7, 11]
    assert small_table.primes_between(8, 10) == []


def test_primes_list_starts_at_two():
    # spf(0) == 0 once made 0 look like a fixed point of spf
    assert build_table(10).primes.tolist() == [2, 3, 5, 7]
    assert build_table(2).primes.tolist() == [2]


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
        # uint16 smallest primes of the composites, 0 at the primes and at 0 and 1
        assert t._spf.dtype == np.uint16 and t._spf.data.format == "H"
        assert t._spf.tolist() == [0 if s == n else s for n, s in enumerate(spf[: N + 1])], N
        assert [t.spf(n) for n in range(2, N + 1)] == spf[2 : N + 1], N
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


def test_non_integers_raise_domain_error(small_table):
    # refused before the table is allocated or indexed, booleans included
    for N in (1e6, 2.5, "10", None, True):
        with pytest.raises(DomainError):
            build_table(N)
    for fn in (factorize, omega, lambda n, t: t.spf(n)):
        for n in (6.0, 2.5, "6", True, False):
            with pytest.raises(DomainError):
                fn(n, small_table)
    # numpy integers are integers, and the queries still answer in Python ints
    t = build_table(np.int64(30))
    assert t.bound == 30 and type(t.bound) is int
    assert small_table.spf(np.int64(9)) == 3 and type(small_table.spf(np.int64(9))) is int
    assert small_table.spf(np.uint16(97)) == 97 and type(small_table.spf(np.uint16(97))) is int
    assert factorize(np.int32(360), small_table) == [(2, 3), (3, 2), (5, 1)]
    assert all(type(x) is int for pair in factorize(np.int64(360), small_table) for x in pair)
    assert omega(np.int64(30), small_table) == 3


def test_every_allowed_bound_fits_uint16_entries():
    # a composite n <= N has its smallest prime at most isqrt(N)
    assert math.isqrt(egyfrac.sieve._MAX_ENTRIES) < 2**16


@pytest.mark.parametrize("N", [720_720, 2_000_000])
def test_table_and_primes_take_under_two_bytes_an_entry(N):
    tracemalloc.start()
    try:
        t = build_table(N)
        held, built_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        t.primes
        _, primes_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 2 * (N + 1) + 4096, held / N
    assert built_peak <= 2 * (N + 1) + 65536, built_peak / N
    # a bool mask and the int64 primes: about 1.6 bytes an entry at these bounds
    assert primes_peak - held < 2 * N, (primes_peak - held) / N
