import math
import random
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    IntSet,
    RangeError,
    build_table,
    has_divisor_pair,
    mertens_product,
    mertens_q_sum,
    omega_in_range,
    passes_smoothness,
    sieve_survivors,
)
from helpers import trial_factorize, trial_is_prime


def test_passes_smoothness_examples(small_table):
    assert passes_smoothness(12, 4, small_table)
    assert not passes_smoothness(12, 3, small_table)
    assert not passes_smoothness(17, 16, small_table)
    with pytest.raises(DomainError):
        passes_smoothness(1, 10, small_table)


def _brute_divisor_pair(n, y, z):
    divs = [d for d in range(1, n + 1) if n % d == 0]
    return any(d1 >= y and 4 * d1 <= d2 <= z for d1 in divs for d2 in divs)


def test_has_divisor_pair_examples():
    assert has_divisor_pair(20, 1, 5)
    assert not has_divisor_pair(7, 1, 5)
    # oracle: full divisor-pair scan of 36
    assert _brute_divisor_pair(36, 2, 12)
    assert has_divisor_pair(36, 2, 12)
    with pytest.raises(DomainError):
        has_divisor_pair(0, 1, 5)


def test_has_divisor_pair_matches_brute_force():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 400)
        y = rng.choice([1, 1.5, 2, 3, 5])
        z = rng.choice([2, 4, 7.5, 12, 30])
        assert has_divisor_pair(n, y, z) == _brute_divisor_pair(n, y, z), (n, y, z)


def test_omega_in_range_examples(small_table):
    assert omega_in_range(12, 1, 2, small_table)
    assert not omega_in_range(8, 2, 3, small_table)
    assert omega_in_range(30, 3, 3, small_table)
    with pytest.raises(DomainError):
        omega_in_range(1, 0, 5, small_table)


def test_sieve_survivors_examples(small_table):
    assert sieve_survivors(1, 10, 2, 3, small_table) == IntSet([1, 5, 7])
    assert sieve_survivors(1, 10, 5, 5, small_table) == IntSet([1, 2, 3, 4, 6, 7, 8, 9])
    assert sieve_survivors(2, 2, 3, 7, small_table) == IntSet([2])
    with pytest.raises(RangeError):
        sieve_survivors(5, 4, 2, 3, small_table)
    with pytest.raises(RangeError):
        sieve_survivors(1, 10_001, 2, 3, small_table)


def test_sieve_survivors_matches_trial_division(small_table):
    def oracle(lo, hi, y, z):
        out = []
        for n in range(lo, hi + 1):
            ps = [p for p, _ in trial_factorize(n)] if n > 1 else []
            if not any(y <= p <= z for p in ps):
                out.append(n)
        return IntSet(out)

    rng = random.Random(22)
    for _ in range(40):
        lo = rng.randint(1, 200)
        hi = lo + rng.randint(0, 300)
        y = rng.choice([2, 3, 4.5, 7])
        z = y + rng.choice([0, 1, 5, 20.5])
        assert sieve_survivors(lo, hi, y, z, small_table) == oracle(lo, hi, y, z)


def test_sieve_survivors_window_monotone(small_table):
    base = sieve_survivors(1, 2000, 5, 20, small_table)
    wider = sieve_survivors(1, 2000, 3, 50, small_table)
    assert set(wider.elements) <= set(base.elements)


def test_mertens_q_sum_examples(small_table):
    assert mertens_q_sum(2, small_table) == Fraction(1, 2)
    assert mertens_q_sum(1, small_table) == Fraction(0)
    # oracle: direct accumulation over the listed prime powers
    oracle = sum((Fraction(1, q) for q in (2, 3, 4, 5, 7, 8, 9)), Fraction(0))
    assert oracle == Fraction(4189, 2520)
    assert mertens_q_sum(10, small_table) == oracle


def test_mertens_product_examples(small_table):
    assert mertens_product(2, small_table) == Fraction(2)
    assert mertens_product(3, small_table) == Fraction(3)
    # oracle: direct product over the primes 2, 3, 5, 7
    oracle = Fraction(1)
    for p in (2, 3, 5, 7):
        oracle *= Fraction(p, p - 1)
    assert oracle == Fraction(35, 8)
    assert mertens_product(10, small_table) == oracle
    assert mertens_product(1, small_table) == Fraction(1)


def test_mertens_sums_match_naive_references(small_table):
    # oracle: running left-to-right Fraction sum and product, one X at a time
    q_sum, product = Fraction(0), Fraction(1)
    for X in range(2, 2001):
        factors = trial_factorize(X)
        if len(factors) == 1:
            q_sum += Fraction(1, X)
            if factors[0][1] == 1:
                product *= Fraction(X, X - 1)
        for got, want in ((mertens_q_sum(X, small_table), q_sum), (mertens_product(X, small_table), product)):
            assert type(got) is Fraction
            assert (got.numerator, got.denominator) == (want.numerator, want.denominator), X


@pytest.mark.parametrize("X", [2**16, 10**5])
def test_mertens_sums_at_scale_are_reduced(X):
    t = build_table(X)
    primes = [p for p in range(2, X + 1) if trial_is_prime(p)]
    q_sum = mertens_q_sum(X, t)
    product = mertens_product(X, t)
    # oracle: the sum over L = lcm(1..X) and the plain product, reduced by Fraction
    L = math.prod(max(_powers_upto(p, X)) for p in primes)
    want_q = Fraction(sum(L // q for p in primes for q in _powers_upto(p, X)), L)
    want_product = Fraction(math.prod(primes), math.prod(p - 1 for p in primes))
    assert (q_sum.numerator, q_sum.denominator) == (want_q.numerator, want_q.denominator)
    assert (product.numerator, product.denominator) == (want_product.numerator, want_product.denominator)
    for r in (q_sum, product):
        assert math.gcd(r.numerator, r.denominator) == 1


def _powers_upto(p, X):
    q = p
    while q <= X:
        yield q
        q *= p


def test_mertens_product_tracks_log(small_table):
    # second Mertens estimate: the product grows like a constant times ln X
    for X in (100, 1000, 10_000):
        ratio = float(mertens_product(X, small_table)) / math.log(X)
        assert 1.5 < ratio < 2.1, (X, ratio)


def test_sieve_density_small(small_table):
    # density envelope at a desk-size range before the full-size acceptance run
    N = 5000
    count = len(sieve_survivors(N, 2 * N - 1, 3, 100, small_table))
    K = (count / N) * (math.log(100) / math.log(3))
    assert K <= 10
