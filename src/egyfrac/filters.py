"""Divisibility and regularity filters, a prime-window sieve, prime-power sums."""
from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, RangeError
from .rational import IntSet, balanced_merge, fraction_sum
from .sieve import FactorTable, exact_prime_powers, omega


def passes_smoothness(n: int, bound: float, t: FactorTable) -> bool:
    """True iff every exact prime-power divisor of n is <= bound."""
    return all(q <= bound for q in exact_prime_powers(n, t))


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
    return IntSet(lo + i for i in range(width) if alive[i])


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
    """Exact sum of 1/q over all prime powers q <= X."""
    if X > t.bound:
        raise RangeError(f"X={X} exceeds table bound {t.bound}")
    if X < 2:
        return Fraction(0)
    return fraction_sum((1, q) for q in prime_powers_upto(X, t))


def mertens_product(X: int, t: FactorTable) -> Fraction:
    """Exact product of (1 - 1/p)^(-1) = p/(p-1) over primes p <= X."""
    if X > t.bound:
        raise RangeError(f"X={X} exceeds table bound {t.bound}")
    terms = [(p, p - 1) for p in t.primes_between(2, X)]
    num, den = balanced_merge(terms, lambda x, y: (x[0] * y[0], x[1] * y[1]), (1, 1))
    return Fraction(num, den)
