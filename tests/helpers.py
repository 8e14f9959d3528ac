"""Shared generators and independent brute-force oracles for the test suite.

Everything here is deliberately naive: these functions re-derive expected
values by enumeration or trial division so that the fast implementations
are checked against a path they share no code with.
"""
import math
import random
from collections import Counter
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


def lcm_recip_sum(A) -> tuple[int, int]:
    """The reciprocal sum of A in lowest terms, as (num, den), by scaling to L = lcm(A)."""
    L = math.lcm(*A)
    num = sum(L // n for n in A)
    g = math.gcd(num, L)
    return num // g, L // g


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


def trial_prime_powers(n: int) -> list[int]:
    """The exact prime-power divisors p^r of n, one per prime, ascending by p."""
    return [p**r for p, r in trial_factorize(n)]


def fraction_masses(S) -> dict[int, Fraction]:
    """Every class mass of S, the sum of q/n over the n with q an exact
    prime-power divisor, each a Fraction accumulated left to right."""
    masses = {}
    for n in sorted(S):
        for q in trial_prime_powers(n):
            masses[q] = masses.get(q, Fraction(0)) + Fraction(q, n)
    return masses


def cosine_weight(B, k: int, h: int) -> float:
    """The damping weight C(B; h) = prod over n in B of |cos(pi k h / n)|."""
    prod = 1.0
    for n in sorted(B):
        r = (k * h) % n
        r = min(r, n - r)
        if 2 * r == n:
            return 0.0
        prod *= abs(math.cos(math.pi * r / n))
    return prod


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


# ---------------------------------------------------------------------------
# reference search engine: recursive DFS and subset-sum enumeration over
# Fractions, as the solver ran them before it moved to lcm-scaled integers


class ReferenceBudgetExhausted(Exception):
    pass


def _trial_primes(n: int) -> list[int]:
    return [p for p, _ in trial_factorize(n)]


def reference_dfs(order, target, counter: list, budget: int):
    """Include-first recursive DFS over ``order`` with the suffix-sum cut and
    the full dead-prime scan; ``counter[0]`` counts nodes and the search
    raises ReferenceBudgetExhausted once it passes ``budget``."""
    k = len(order)
    fracs = [Fraction(1, n) for n in order]
    suffix = [Fraction(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + fracs[i]
    factor_lists = [_trial_primes(n) for n in order]
    all_primes = set()
    for fs in factor_lists:
        all_primes.update(fs)
    supp = set()
    dead = [()] * (k + 1)
    dead[k] = tuple(sorted(all_primes))
    for i in range(k - 1, -1, -1):
        supp.update(factor_lists[i])
        dead[i] = tuple(sorted(all_primes - supp))

    def rec(i, deficit):
        counter[0] += 1
        if counter[0] > budget:
            raise ReferenceBudgetExhausted
        if deficit == 0:
            return ()
        if i == k or suffix[i] < deficit:
            return None
        den = deficit.denominator
        if den > 1:
            for p in dead[i]:
                if den % p == 0:
                    return None
        if fracs[i] <= deficit:
            found = rec(i + 1, deficit - fracs[i])
            if found is not None:
                return (order[i],) + found
        return rec(i + 1, deficit)

    return rec(0, Fraction(target))


def reference_grouped_order(elems) -> list[int]:
    return sorted(elems, key=lambda n: (-_trial_primes(n)[-1] if n > 1 else -1, n))


def reference_unreachable(A, target) -> bool:
    """Whether the target's denominator fails to divide lcm(A) or the target
    lies outside [0, R(A)]: then every search stops before its first node."""
    return math.lcm(*A) % target.denominator != 0 or not 0 <= target <= sum(Fraction(1, n) for n in A)


def reference_find_dfs(A, target, budget: int, deterministic: bool = True):
    """(status, witness, nodes) of a dfs_bnb search: grouped order first, then
    an ascending re-search for the lexicographically smallest witness."""
    elems = sorted(A)
    target = Fraction(target)
    if reference_unreachable(elems, target):
        return "exhausted_none", None, 0
    counter = [0]
    try:
        witness = reference_dfs(reference_grouped_order(elems), target, counter, budget)
        if witness is None:
            return "exhausted_none", None, counter[0]
        if deterministic:
            witness = reference_dfs(elems, target, counter, budget)
    except ReferenceBudgetExhausted:
        return "budget_exceeded", None, counter[0]
    return "found", tuple(sorted(witness)), counter[0]


def reference_enumerate_sums(half) -> list[tuple[Fraction, tuple[int, ...]]]:
    out = [(Fraction(0), ())]
    for n in half:
        f = Fraction(1, n)
        out += [(s + f, subset + (n,)) for s, subset in out]
    return out


def reference_find_meet(A, target, budget: int, deterministic: bool = True):
    """(status, witness, nodes) of a meet_middle search over alternating halves."""
    elems = sorted(A)
    target = Fraction(target)
    if reference_unreachable(elems, target):
        return "exhausted_none", None, 0
    left, right = elems[0::2], elems[1::2]
    # each element of a half spends one node per sum it adds
    nodes = 2 ** len(left) + 2 ** len(right) - 2
    if nodes > budget:
        return "budget_exceeded", None, nodes
    left_sums = {}
    for s, subset in reference_enumerate_sums(left):
        left_sums.setdefault(s, []).append(subset)
    best = None
    for s, rsub in reference_enumerate_sums(right):
        for lsub in left_sums.get(target - s, ()):
            candidate = tuple(sorted(lsub + rsub))
            if not deterministic:
                return "found", candidate, nodes
            if best is None or candidate < best:
                best = candidate
    return ("exhausted_none", None, nodes) if best is None else ("found", best, nodes)


def reference_count_subsets(A, target) -> int:
    elems = sorted(A)
    counts = Counter(s for s, _ in reference_enumerate_sums(elems[0::2]))
    return sum(counts[Fraction(target) - s] for s, _ in reference_enumerate_sums(elems[1::2]))


def reference_count_integral(A, k: int) -> int:
    elems = sorted(A)
    counts = Counter((k * s) % 1 for s, _ in reference_enumerate_sums(elems[0::2]))
    return sum(counts[(-k * s) % 1] for s, _ in reference_enumerate_sums(elems[1::2]))


# ---------------------------------------------------------------------------
# reference lambda search: the branch and bound lambda_exact ran before it
# searched the core with a reachability bitset, vetting with the reference DFS


def reference_lambda(N: int) -> tuple[Fraction, tuple[int, ...]]:
    """(lambda(N), witness) by recursive branch and bound over all of [2, N]
    in ascending order, include first, vetting each inclusion of n with a
    complete subset search for 1 - 1/n over the elements already chosen."""
    universe = list(range(2, N + 1))
    m = len(universe)
    tail = [Fraction(0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + Fraction(1, universe[i])
    best, best_set = Fraction(0), ()

    def rec(i, cur, chosen):
        nonlocal best, best_set
        if cur + tail[i] <= best:
            return
        if i == m:
            best, best_set = cur, tuple(chosen)
            return
        n = universe[i]
        status, _, _ = reference_find_dfs(chosen, 1 - Fraction(1, n), 10**7, deterministic=False)
        assert status != "budget_exceeded"
        if status == "exhausted_none":
            rec(i + 1, cur + Fraction(1, n), chosen + [n])
        rec(i + 1, cur, chosen)

    rec(0, Fraction(0), [])
    return best, best_set
