"""Smallest-prime-factor sieve and the factorization queries built on it.

The table holds, for each n up to its bound, the smallest prime factor of n
when n is composite and 0 when n is prime (and at the placeholders 0 and 1),
as uint16: a composite n <= N has its smallest prime at most isqrt(N), below
2^16 for every bound ``_MAX_ENTRIES`` allows, so an entry takes 2 bytes.
Every reader reads a 0 as n itself.
"""
from __future__ import annotations

import math
import numbers
import operator
from typing import Iterator, Sequence

import numpy as np

from .errors import DomainError, RangeError, ResourceLimitError

# Ceiling on table size: uint16 entries, roughly 128 MB.
_MAX_ENTRIES = 64_000_000

Factorization = list[tuple[int, int]]


class FactorTable:
    """Smallest-prime-factor table covering 2..bound.

    spf(n) is prime and divides n; spf(p) == p exactly when p is prime.
    Stored as uint16, 2 bytes an entry: the smallest prime of each
    composite, 0 at the primes and at 0 and 1.  Immutable after
    construction; all queries are pure.
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
        n = self._check(n)
        return self._spf.data[n] or n

    @property
    def primes(self) -> np.ndarray:
        """All primes <= bound, ascending (computed once, then cached)."""
        if self._primes is None:
            # the 0 entries from 2 on; those at 0 and 1 are placeholders
            object.__setattr__(self, "_primes", np.flatnonzero(self._spf[2:] == 0) + 2)
        return self._primes

    def peel(self, values: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Divide every entry of ``values`` above 1 by its smallest prime
        factor, in place, until all are 1; each round yields the indices it
        divided and their primes.  Entries must be at most ``bound``.
        """
        live = np.flatnonzero(values > 1)
        while live.size:
            v = values[live]
            p = self._spf[v]
            p = np.where(p, p, v)  # a 0 entry: v is prime
            values[live] = v // p
            yield live, p
            live = live[values[live] > 1]

    def largest_primes(self, values: np.ndarray) -> np.ndarray:
        """The largest prime factor of each entry of ``values`` (0 for an
        entry of 1), read off as the last prime ``peel`` divides it by.
        Entries must be at least 1 and at most ``bound``.
        """
        largest = np.zeros_like(values)
        for live, p in self.peel(values.copy()):
            largest[live] = p
        return largest

    def primes_between(self, lo: float, hi: float) -> list[int]:
        """Primes p with lo <= p <= hi (endpoints may be non-integers)."""
        ps = self.primes
        i = np.searchsorted(ps, lo, side="left")
        j = np.searchsorted(ps, hi, side="right")
        return ps[i:j].tolist()

    def _check(self, n: int) -> int:
        """n as an int, once it is an integer in 2..bound."""
        n = _as_int(n, "n")
        if n < 2:
            raise DomainError(f"n must be >= 2, got {n}")
        if n > self.bound:
            raise RangeError(f"n={n} exceeds table bound {self.bound}")
        return n


def _as_int(n, name: str) -> int:
    """n as an int; DomainError unless it is an integer.  Booleans are refused,
    as ``rational.positive_k`` refuses them; numpy integers are accepted."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    return operator.index(n)


def build_table(N: int) -> FactorTable:
    """Sieve smallest prime factors for 2..N."""
    N = _as_int(N, "table bound")
    if N < 2:
        raise DomainError(f"table bound must be >= 2, got {N}")
    if N + 1 > _MAX_ENTRIES:
        raise ResourceLimitError(f"table bound {N} exceeds the budget of {_MAX_ENTRIES} entries")
    return FactorTable(N, _sieve(N))


def _sieve(N: int) -> np.ndarray:
    """Smallest prime factors of the composites in 0..N, for N >= 2 (0 elsewhere)."""
    # every entry starts at 0, and the primes, which nothing marks, keep it
    spf = np.zeros(N + 1, dtype=np.uint16)
    # a composite n <= N has its smallest prime p at most sqrt(N), with p*p <= n: each
    # such prime marks its multiples from p*p on, the largest first, so the smallest
    # prime dividing n writes last; an odd prime marks only its odd multiples, and 2
    # marks the even ones at the end
    root = math.isqrt(N)
    for p in reversed(FactorTable(root, _sieve(root)).primes.tolist()[1:] if root >= 2 else []):
        spf[p * p :: 2 * p] = p
    spf[4::2] = 2
    return spf


def factorize(n: int, t: FactorTable) -> Factorization:
    """Complete prime factorization as (prime, exponent) pairs, primes ascending."""
    n = t._check(n)
    spf = t._spf.data  # a memoryview: indexing gives Python ints, not numpy scalars
    out: Factorization = []
    while n > 1:
        p = spf[n] or n
        r = 0
        while n % p == 0:
            n //= p
            r += 1
        out.append((p, r))
    return out


def omega(n: int, t: FactorTable) -> int:
    """Number of distinct prime factors."""
    return len(factorize(n, t))


def _prime_powers_each(elems: Sequence[int], t: FactorTable) -> list[list[int]]:
    """The exact prime powers of each of the ascending ``elems``, each list ascending."""
    if elems:
        t._check(elems[0])
        t._check(elems[-1])
    spf = t._spf.data
    out = []
    for n in elems:
        qs = []
        while n > 1:
            p = q = spf[n] or n
            n //= p
            while n % p == 0:
                n //= p
                q *= p
            qs.append(q)
        qs.sort()
        out.append(qs)
    return out


def factorize_all(elems: Sequence[int]) -> dict[int, Factorization]:
    """The factorization of each of the distinct positive integers ``elems``
    (1 maps to []).

    A sieve up to m = max(elems) has a fixed cost of about 0.1 ms, and
    trial division 1 to 10 microseconds an element, so the sieve is used for
    256 or more elements with m at most 8 times their count (and within
    _MAX_ENTRIES).  It peels the smallest prime factor off every element at
    once until each is 1.  (Measured on a 2-vCPU Xeon, best of 21, on
    random sets with m from 2 to 64 times their count: at 128 elements
    trial division took 0.08 to 0.16 ms and the sieve 0.14 to 0.24 ms; at
    256 the two were even, 0.19 to 0.41 ms and 0.20 to 0.48 ms; at 512 the
    sieve was faster, 0.38 to 0.69 ms against 0.44 to 1.0 ms.  On the
    Pomerance sets, of density 0.25 to 0.4, the sieve was faster from
    N = 1250 on, by about 4 times at N = 10^5.)
    """
    top = max(elems, default=1)
    if len(elems) < 256 or not top <= min(8 * len(elems), _MAX_ENTRIES - 1):
        return {n: _trial_factorize(n) for n in elems}
    # one key per (element, prime) pair, made a round at a time so no round's rows and
    # primes outlive it; a key's count is the prime's exponent
    base = top + 1
    rounds = build_table(top).peel(np.array(elems, dtype=np.int64))
    keys, counts = np.unique(np.concatenate([rows * base + p for rows, p in rounds]), return_counts=True)
    out: dict[int, Factorization] = {n: [] for n in elems}
    for key, a in zip(keys.tolist(), counts.tolist()):
        out[elems[key // base]].append((key % base, a))
    return out


def _trial_factorize(n: int) -> Factorization:
    """The factorization of n >= 1 by one pass of trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            a = 0
            while n % d == 0:
                n //= d
                a += 1
            out.append((d, a))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out
