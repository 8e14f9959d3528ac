"""Smallest-prime-factor sieve and the factorization queries built on it."""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DomainError, RangeError, ResourceLimitError
from .rational import IntSet

# Ceiling on table size: int32 entries, roughly 256 MB.
_MAX_ENTRIES = 64_000_000

Factorization = list[tuple[int, int]]


class FactorTable:
    """Smallest-prime-factor table covering 2..bound.

    spf(n) is prime and divides n; spf(p) == p exactly when p is prime.
    Immutable after construction; all queries are pure.
    """

    __slots__ = ("bound", "_spf", "_primes")

    def __init__(self, bound: int, spf: np.ndarray):
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "_spf", spf)
        object.__setattr__(self, "_primes", None)

    def __setattr__(self, name, value):
        raise AttributeError("FactorTable is immutable")

    def __repr__(self) -> str:
        return f"FactorTable(bound={self.bound})"

    def spf(self, n: int) -> int:
        self._check(n)
        return int(self._spf[n])

    def is_prime(self, n: int) -> bool:
        self._check(n)
        return int(self._spf[n]) == n

    @property
    def primes(self) -> np.ndarray:
        """All primes <= bound, ascending (computed once, then cached)."""
        if self._primes is None:
            # spf(0) == 0 and spf(1) == 0 are placeholders, not fixed points
            idx = np.arange(2, self.bound + 1, dtype=self._spf.dtype)
            object.__setattr__(self, "_primes", np.flatnonzero(self._spf[2:] == idx) + 2)
        return self._primes

    def primes_between(self, lo: float, hi: float) -> list[int]:
        """Primes p with lo <= p <= hi (endpoints may be non-integers)."""
        ps = self.primes
        i = np.searchsorted(ps, lo, side="left")
        j = np.searchsorted(ps, hi, side="right")
        return [int(p) for p in ps[i:j]]

    def _check(self, n: int) -> None:
        if n < 2:
            raise DomainError(f"n must be >= 2, got {n}")
        if n > self.bound:
            raise RangeError(f"n={n} exceeds table bound {self.bound}")


def build_table(N: int) -> FactorTable:
    """Sieve smallest prime factors for 2..N."""
    if N < 2:
        raise DomainError(f"table bound must be >= 2, got {N}")
    if N + 1 > _MAX_ENTRIES:
        raise ResourceLimitError(f"table bound {N} exceeds the budget of {_MAX_ENTRIES} entries")
    spf = np.zeros(N + 1, dtype=np.int32 if N < 2**31 else np.int64)
    i = 2
    while i * i <= N:
        if spf[i] == 0:
            sub = spf[i * i :: i]
            sub[sub == 0] = i
        i += 1
    # untouched entries >= 2 are prime
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return FactorTable(N, spf)


def factorize(n: int, t: FactorTable) -> Factorization:
    """Complete prime factorization as (prime, exponent) pairs, primes ascending."""
    t._check(n)
    spf = t._spf
    out: Factorization = []
    while n > 1:
        p = int(spf[n])
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        out.append((p, r))
    return out


def omega(n: int, t: FactorTable) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n, t))


def exact_prime_powers(n: int, t: FactorTable) -> IntSet:
    """The set {p^r : p^r divides n, gcd(p^r, n/p^r) = 1}, one per prime."""
    return IntSet(p**r for p, r in factorize(n, t))


def largest_prime(n: int, t: FactorTable) -> int:
    """The largest prime dividing n."""
    return factorize(n, t)[-1][0]


def is_prime_power(q: int) -> bool:
    """True iff q = p^r for a prime p and r >= 1 (pure trial division)."""
    if q < 2:
        return False
    p = _least_factor(q)
    while q % p == 0:
        q //= p
    return q == 1


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division (table-free; n >= 1)."""
    out = []
    while n > 1:
        p = _least_factor(n)
        out.append(p)
        while n % p == 0:
            n //= p
    return out


def factorize_all(elems: Sequence[int]) -> dict[int, Factorization]:
    """The factorization of each of the distinct positive integers ``elems``
    (1 maps to []).

    A sieve up to m = max(elems) has a fixed cost of about 0.1 ms, and
    trial division 1 to 10 microseconds an element, so the sieve is used for
    256 or more elements with m at most 8 times their count (and within
    _MAX_ENTRIES).  It peels the smallest prime factor off every element at
    once until each is 1.  (Measured on a 2-vCPU Xeon: on random sets of 30
    to 1000 elements up to 10^3 to 10^6 trial division was faster; on the
    Pomerance sets, of density 0.25 to 0.4, the sieve was faster from
    N = 1250 on, by about 6 times at N = 10^5.)
    """
    top = max(elems, default=1)
    if len(elems) < 256 or not top <= min(8 * len(elems), _MAX_ENTRIES - 1):
        return {n: _trial_factorize(n) for n in elems}
    spf = build_table(top)._spf
    rem = np.array(elems, dtype=np.int64)
    live = np.flatnonzero(rem > 1)
    rows, primes = [], []
    while live.size:
        p = spf[rem[live]]
        rows.append(live)
        primes.append(p)
        rem[live] //= p
        live = live[rem[live] > 1]
    # one key per (element, prime) pair; its count is the prime's exponent
    base = top + 1
    keys, counts = np.unique(np.concatenate(rows) * base + np.concatenate(primes), return_counts=True)
    out: dict[int, Factorization] = {n: [] for n in elems}
    for key, a in zip(keys.tolist(), counts.tolist()):
        out[elems[key // base]].append((key % base, a))
    return out


def _trial_factorize(n: int) -> Factorization:
    out = []
    for p in prime_factors(n):
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out.append((p, a))
    return out


def _least_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return d
        d += 2
    return n
