"""Shared generators and independent brute-force oracles for the test suite.

Everything here is deliberately naive: these functions re-derive expected
values by enumeration or trial division so that the fast implementations
are checked against a path they share no code with.
"""
import math
import random
from fractions import Fraction
from itertools import combinations

from egyfrac import IntSet


def random_lcm_capped_set(rng: random.Random, lo: int, hi: int, max_size: int, lcm_cap: int) -> IntSet:
    """Random subset of [lo, hi] grown greedily while the lcm stays capped."""
    pool = list(range(lo, hi + 1))
    rng.shuffle(pool)
    elems, L = [], 1
    for n in pool:
        L2 = math.lcm(L, n)
        if L2 <= lcm_cap:
            elems.append(n)
            L = L2
            if len(elems) >= max_size:
                break
    return IntSet(elems)


def divisors_above_one(N: int) -> list[int]:
    """The divisors of N other than 1, ascending, by trial division."""
    return [d for d in range(2, N + 1) if N % d == 0]


def random_set(rng: random.Random, lo: int, hi: int, max_size: int) -> IntSet:
    size = rng.randint(1, max_size)
    return IntSet(rng.sample(range(lo, hi + 1), min(size, hi - lo + 1)))


def brute_subsets_with_sum(A, target) -> list[tuple[int, ...]]:
    """All subsets with the given reciprocal sum, by full enumeration."""
    elems = sorted(A)
    target = Fraction(target)
    out = []
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            if sum((Fraction(1, n) for n in combo), Fraction(0)) == target:
                out.append(combo)
    return out


def brute_count_integral(A, k: int) -> int:
    elems = sorted(A)
    count = 0
    for r in range(len(elems) + 1):
        for combo in combinations(elems, r):
            s = sum((Fraction(k, n) for n in combo), Fraction(0))
            if s.denominator == 1:
                count += 1
    return count


def trial_factorize(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        r = 0
        while n % d == 0:
            n //= d
            r += 1
        if r:
            out.append((d, r))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def trial_is_prime(n: int) -> bool:
    return n >= 2 and trial_factorize(n) == [(n, 1)]


def exhaustive_lambda(N: int) -> Fraction:
    """Maximum reciprocal sum of a solution-free subset of {1..N}, by full
    enumeration over subsets of {2..N} with superset-closure marking.

    1 never participates: the singleton {1} already sums to 1.
    """
    universe = list(range(2, N + 1))
    m = len(universe)
    sums = [Fraction(0)] * (1 << m)
    bit_index = {1 << i: i for i in range(m)}
    for mask in range(1, 1 << m):
        low = mask & (-mask)
        sums[mask] = sums[mask ^ low] + Fraction(1, universe[bit_index[low]])
    bad = [sums[mask] == 1 for mask in range(1 << m)]
    for b in range(m):
        bit = 1 << b
        for mask in range(1 << m):
            if mask & bit and bad[mask ^ bit]:
                bad[mask] = True
    best = Fraction(0)
    for mask in range(1 << m):
        if not bad[mask] and sums[mask] > best:
            best = sums[mask]
    return best
