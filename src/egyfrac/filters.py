"""Divisibility and regularity filters, a prime-window sieve, prime-power sums.

The window sieve marks a bytearray and reads the survivors off with numpy.
The two Mertens sums are built from one term per prime, arranged so that
the result is in lowest terms by construction and needs no final gcd.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError
from .rational import IntSet, _coprime_sum, _reduced_fraction, balanced_merge
from .sieve import FactorTable, factorize, omega


def passes_smoothness(n: int, bound: float, t: FactorTable) -> bool:
    """True iff every exact prime-power divisor of n is <= bound."""
    return all(p**r <= bound for p, r in factorize(n, t))


def has_divisor_pair(n: int, y: float, z: float) -> bool:
    """True iff n has divisors d1, d2 with y <= d1 and 4*d1 <= d2 <= z.

    Only divisors <= z matter (d2 <= z forces d1 <= z/4), so the scan is
    O(z) regardless of the size of n.
    """
    if n < 1:
        raise DomainError(f"n must be positive, got {n}")
    top = min(n, math.floor(z))
    d1_min = 0
    d2_max = 0
    for d in range(1, top + 1):
        if n % d == 0:
            if d >= y and d1_min == 0:
                d1_min = d
            d2_max = d
    return d1_min != 0 and 4 * d1_min <= d2_max


def omega_in_range(n: int, lo: float, hi: float, t: FactorTable) -> bool:
    """True iff lo <= omega(n) <= hi."""
    w = omega(n, t)
    return lo <= w <= hi


def sieve_survivors(lo: int, hi: int, y: float, z: float, t: FactorTable) -> IntSet:
    """Integers in [lo, hi] with no prime factor p in the closed window [y, z]."""
    if not 1 <= lo <= hi:
        raise RangeError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi > t.bound:
        raise RangeError(f"hi={hi} exceeds table bound {t.bound}")
    width = hi - lo + 1
    alive = bytearray(b"\x01") * width
    for p in t.primes_between(max(y, 2), min(z, hi)):
        start = ((lo + p - 1) // p) * p
        if start <= hi:
            count = (hi - start) // p + 1
            alive[start - lo :: p] = b"\x00" * count
    return IntSet._sorted(tuple((np.flatnonzero(np.frombuffer(alive, dtype=np.uint8)) + lo).tolist()))


def prime_powers_upto(X: int, t: FactorTable) -> list[int]:
    """All prime powers p^r <= X, ascending."""
    if X > t.bound:
        raise RangeError(f"X={X} exceeds table bound {t.bound}")
    out = []
    for p in t.primes_between(2, X):
        pk = p
        while pk <= X:
            out.append(pk)
            pk *= p
    out.sort()
    return out


def mertens_q_sum(X: int, t: FactorTable) -> Fraction:
    """Exact sum of 1/q over all prime powers q <= X.

    The sum takes one term per prime p <= X: with p^a the largest power of
    p that is <= X, 1/p + ... + 1/p^a = c_p / p^a where
    c_p = 1 + p + ... + p^(a-1) = (p^a - 1)/(p - 1).  The denominators p^a
    are pairwise coprime, so ``_coprime_sum`` merges them without gcds into
    N / L with N = sum of c_q * L/q^b over the primes q and L = lcm(1..X).
    That is already in lowest terms: for q != p, L/q^b carries the factor
    p^a, so N = c_p * L/p^a (mod p), where c_p = 1 (mod p) and L/p^a is
    prime to p.  No prime p <= X divides N, so gcd(N, L) = 1.
    """
    if X > t.bound:
        raise RangeError(f"X={X} exceeds table bound {t.bound}")
    if X < 2:
        return Fraction(0)
    terms = []
    for p in t.primes_between(2, X):
        pa = p
        while pa * p <= X:
            pa *= p
        terms.append(((pa - 1) // (p - 1), pa))
    num, den = _coprime_sum(terms)
    return _reduced_fraction(num, den)


def mertens_product(X: int, t: FactorTable) -> Fraction:
    """Exact product of (1 - 1/p)^(-1) = p/(p-1) over primes p <= X.

    Each prime's net exponent is 1 (for p itself) minus its multiplicity in
    the product of all p - 1, read off by dividing each p - 1 by its
    smallest prime factor until 1 is left.  Primes with positive exponent
    make the numerator and the rest the denominator, so the two sides
    share no prime and the result is in lowest terms with no final gcd.
    """
    if X > t.bound:
        raise RangeError(f"X={X} exceeds table bound {t.bound}")
    ps = t.primes[: np.searchsorted(t.primes, X, side="right")]
    exponent = np.zeros(max(X, 1) + 1, dtype=np.int64)
    exponent[ps] = 1
    for _, f in t.peel(ps - 1):
        exponent -= np.bincount(f, minlength=exponent.size)
    up, down = np.flatnonzero(exponent > 0), np.flatnonzero(exponent < 0)
    num = [p**e for p, e in zip(up.tolist(), exponent[up].tolist())]
    den = [p**-e for p, e in zip(down.tolist(), exponent[down].tolist())]
    return _reduced_fraction(balanced_merge(num, operator.mul, 1), balanced_merge(den, operator.mul, 1))
