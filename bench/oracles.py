"""Independent checks for the outputs of the benchmark's operations.

Nothing here imports egyfrac: every expected value is re-derived with plain
integer arithmetic (lcm scaling, trial division, a bytearray sieve, meet in
the middle over integer weights), so a check shares no code with the path
it checks.  A failed check raises ``Wrong``.
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

EULER_GAMMA = 0.5772156649015329
# sum over primes p of 1/(p(p-1)) plus Mertens' constant: the limit of
# (sum of 1/q over prime powers q <= X) - ln ln X
PRIME_POWER_MERTENS = 1.0346538818974379

# combined solution count above which a lex-min witness is not re-derived
_LEX_CAP = 100_000


class Wrong(AssertionError):
    """An operation returned an output that its oracle contradicts."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Wrong(what)


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
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def exact_prime_powers(n: int) -> list[int]:
    return [p**r for p, r in trial_factorize(n)]


def largest_prime(n: int) -> int:
    return trial_factorize(n)[-1][0]


def primes_upto(X: int) -> list[int]:
    mark = bytearray([1]) * (X + 1)
    mark[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(X) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, X + 1, p)))
    return [p for p in range(X + 1) if mark[p]]


def prime_powers_upto(X: int) -> list[int]:
    out = []
    for p in primes_upto(X):
        q = p
        while q <= X:
            out.append(q)
            q *= p
    return out


def check_recip(value: Fraction, denoms) -> None:
    """value == sum(1/n), checked by scaling with the lcm of the denominators."""
    denoms = list(denoms)
    L = math.lcm(*denoms) if denoms else 1
    expect(value.numerator * L == sum(L // n for n in denoms) * value.denominator,
           f"reciprocal sum of {len(denoms)} terms is wrong")


def _half_sums(weights: list[int]) -> list[int]:
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def count_integral(A, k: int) -> int:
    """Number of subsets S of A with k * sum(1/n for n in S) an integer."""
    A = list(A)
    L = math.lcm(*A) if A else 1
    weights = [(k * (L // n)) % L for n in A]
    if len(A) <= 36:
        left = Counter(s % L for s in _half_sums(weights[0::2]))
        return sum(left[(-s) % L] for s in _half_sums(weights[1::2]))
    dp = [0] * L
    dp[0] = 1
    for w in weights:
        dp = [a + b for a, b in zip(dp, dp[-w:] + dp[:-w])] if w else [2 * a for a in dp]
    return dp[0]


def subset_solutions(A, target: Fraction) -> tuple[int, tuple[int, ...] | None]:
    """(number of subsets of A with reciprocal sum target, lex-smallest one).

    The lex-smallest subset is None when there is none, and also when the
    solutions are too many to list (more than _LEX_CAP combined pairs).
    """
    A = sorted(A)
    L = math.lcm(*A) if A else 1
    scaled = target * L
    if scaled.denominator != 1:
        return 0, None
    T = scaled.numerator
    left, right = A[0::2], A[1::2]
    by_sum: dict[int, list[int]] = {}
    lw = [L // n for n in left]
    for mask, s in enumerate(_half_sums(lw)):
        by_sum.setdefault(s, []).append(mask)
    rw = [L // n for n in right]
    count, best, listed = 0, None, 0
    for rmask, s in enumerate(_half_sums(rw)):
        lmasks = by_sum.get(T - s)
        if not lmasks:
            continue
        count += len(lmasks)
        listed += len(lmasks)
        if listed > _LEX_CAP:
            continue
        rpart = [right[i] for i in range(len(right)) if rmask >> i & 1]
        for lmask in lmasks:
            cand = tuple(sorted(rpart + [left[i] for i in range(len(left)) if lmask >> i & 1]))
            if best is None or cand < best:
                best = cand
    return count, (best if listed <= _LEX_CAP else None)


def reachability_solutions(A, target: Fraction) -> tuple[int, tuple[int, ...] | None]:
    """Like subset_solutions, by bitset reachability over lcm-scaled weights;
    the count is only 0 or 1."""
    A = sorted(A)
    L = math.lcm(*A) if A else 1
    scaled = target * L
    if scaled.denominator != 1:
        return 0, None
    T = scaled.numerator
    mask = (1 << (T + 1)) - 1
    reach = [0] * (len(A) + 1)
    reach[-1] = 1
    for i in range(len(A) - 1, -1, -1):
        reach[i] = (reach[i + 1] | reach[i + 1] << (L // A[i])) & mask
    if not reach[0] >> T & 1:
        return 0, None
    out, r = [], T
    for i, n in enumerate(A):
        w = L // n
        if w <= r and reach[i + 1] >> (r - w) & 1:
            out.append(n)
            r -= w
    return 1, tuple(out)


def check_search(A, target: Fraction, status: str, witness, nodes: int, budget: int,
                 solutions=subset_solutions) -> None:
    """Check a solver result against an independent search of the same instance."""
    if status == "budget_exceeded":
        expect(nodes >= budget, f"budget_exceeded after {nodes} < {budget} nodes")
        return
    count, lex_min = solutions(A, target)
    if status == "exhausted_none":
        expect(count == 0, f"exhausted_none, but a subset sums to {target}")
        return
    expect(status == "found", f"unknown status {status}")
    expect(count > 0, f"found, but no subset sums to {target}")
    expect(set(witness) <= set(A), "witness is not a subset of the input")
    check_recip(target, witness)
    if lex_min is not None:
        expect(tuple(witness) == lex_min, f"witness {tuple(witness)} is not lex-smallest {lex_min}")


def ppower_classes(A) -> dict[int, list[int]]:
    classes: dict[int, list[int]] = {}
    for n in sorted(A):
        for q in exact_prime_powers(n):
            classes.setdefault(q, []).append(n)
    return classes


def class_mass(q: int, members) -> Fraction:
    return sum((Fraction(q, n) for n in members), Fraction(0))


def pomerance_members(N: int, C: float) -> list[int]:
    """{2 <= n <= N : largest prime p of n has p ln p > C n}, by trial division."""
    out = []
    for n in range(2, N + 1):
        p = largest_prime(n)
        if p * math.log(p) > C * n:
            out.append(n)
    return out


def solution_free_lambda(N: int) -> Fraction:
    """Largest reciprocal sum of a subset of {2..N} with no sub-subset summing to 1."""
    universe = list(range(2, N + 1))
    L = math.lcm(*universe)
    m = len(universe)
    sums = [0] * (1 << m)
    for i, n in enumerate(universe):
        bit = 1 << i
        w = L // n
        sums[bit : 2 * bit] = [s + w for s in sums[:bit]]
    bad = bytearray(1 << m)
    for mask in range(1 << m):
        if sums[mask] == L:
            bad[mask] = 1
    for i in range(m):
        bit = 1 << i
        for mask in range(1 << m):
            if mask & bit and bad[mask ^ bit]:
                bad[mask] = 1
    best = max(s for mask, s in enumerate(sums) if not bad[mask])
    return Fraction(best, L)
