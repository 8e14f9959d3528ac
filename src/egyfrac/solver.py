"""Exact subset search and counting for reciprocal-sum targets.

Three interchangeable search strategies are provided.  All are exact and
complete: a "found" result carries a verified witness, an
"exhausted_none" result certifies that no qualifying subset exists, and
running out of node budget is reported as a status rather than an error.

The searches and the enumeration counters work in integer units of 1/L,
L a common multiple of the elements and of the target's denominator: a
subset sum is then an int, and no Fraction is formed per node.

The size limits of the residue DPs and of the counters' enumeration are
the module constants _DP_LCM_BOUND, _DP_SUM_BOUND and _EXHAUSTIVE_BOUND.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .rational import IntSet, SetLike, as_intset, recip_sum
from .sieve import prime_factors

# count_subsets and count_integral enumerate subset sums up to this many elements
_EXHAUSTIVE_BOUND = 24
# the residue DPs run only up to this lcm and this scaled target
_DP_LCM_BOUND = 10_000_000
_DP_SUM_BOUND = 50_000_000


class Strategy(str, Enum):
    DFS_BNB = "dfs_bnb"
    MEET_MIDDLE = "meet_middle"
    RESIDUE_DP = "residue_dp"
    AUTO = "auto"


class SolverStatus(str, Enum):
    FOUND = "found"
    EXHAUSTED_NONE = "exhausted_none"
    BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class SolverConfig:
    strategy: Strategy = Strategy.AUTO
    node_budget: int = 10_000_000
    deterministic: bool = True

    def __post_init__(self):
        if self.node_budget <= 0:
            raise DomainError("node_budget must be positive")


@dataclass(frozen=True)
class SolverResult:
    status: SolverStatus
    witness: Optional[IntSet]
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "nodes": self.nodes_explored,
        }


class _BudgetExhausted(Exception):
    pass


class _Nodes:
    __slots__ = ("count", "limit")

    def __init__(self, limit: int):
        self.count = 0
        self.limit = limit

    def spend(self, k: int = 1) -> None:
        self.count += k
        if self.count > self.limit:
            raise _BudgetExhausted


def _in_units(elems: Sequence[int], target: Fraction) -> tuple[int, int]:
    """L = lcm(elems and the target's denominator), and the target in units of 1/L."""
    L = math.lcm(target.denominator, *elems)
    return L, target.numerator * (L // target.denominator)


# ---------------------------------------------------------------------------
# depth-first branch and bound


def _prime_power_part(L: int, p: int) -> int:
    """p^v_p(L), the largest power of the prime p dividing L."""
    q = p
    while L % (q * p) == 0:
        q *= p
    return q


def _dfs_search(
    order: Sequence[int],
    L: int,
    T: int,
    factors: dict[int, list[int]],
    target_primes: Sequence[int],
    nodes: _Nodes,
) -> Optional[tuple[int, ...]]:
    """Complete DFS over ``order``, include-first, in units of 1/L.

    L is a common multiple of the elements and of the target's
    denominator, so the target is the integer T and element n weighs
    L/n.  Returns the first qualifying subset in exploration order, or
    None if none exists.  Two sound cuts are applied: the remaining suffix
    weight must cover the deficit D, and every prime left in the deficit's
    denominator must still divide some remaining element (otherwise it can
    never cancel).  A prime p is in that denominator iff p^v_p(L) does not
    divide D.  A node's parent has already cleared every prime its own
    suffix lacks, and the element between them is coprime to those, so
    each node tests only the primes whose last carrier is the element just
    decided (at the root, the target's primes no element carries).

    The tree is walked with an explicit stack, so its depth is bounded by
    nothing but memory.
    """
    k = len(order)
    weights = [L // n for n in order]
    suffix = [0] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + weights[i]
    # dying[i]: the prime powers p^v_p(L) whose prime first goes missing from order[i:]
    dying: list[list[int]] = [[] for _ in range(k + 1)]
    last = {p: i + 1 for i, n in enumerate(order) for p in factors[n]}
    for p in target_primes:
        last.setdefault(p, 0)
    for p, i in last.items():
        dying[i].append(_prime_power_part(L, p))

    chosen = [False] * k
    stack = [(0, T, False)]
    count, limit = nodes.count, nodes.limit
    while stack:
        i, D, included = stack.pop()
        count += 1
        if count > limit:
            nodes.count = count
            raise _BudgetExhausted
        if i:
            chosen[i - 1] = included
        if D == 0:
            nodes.count = count
            return tuple(order[j] for j in range(i) if chosen[j])
        if i == k or suffix[i] < D:
            continue
        for q in dying[i]:
            if D % q:
                break
        else:
            stack.append((i + 1, D, False))
            if weights[i] <= D:
                stack.append((i + 1, D - weights[i], True))
    nodes.count = count
    return None


def _grouped_order(elems: Sequence[int], factors: dict[int, list[int]]) -> list[int]:
    """Order elements so that all multiples of each largest prime sit together.

    Exhaustion proofs resolve one prime at a time: once the last element
    carrying a given largest prime has been decided, any branch whose
    deficit still involves that prime is cut.  Grouping makes those spans
    as short as possible.
    """
    return sorted(elems, key=lambda n: (-factors[n][-1] if n > 1 else -1, n))


def _find_dfs(elems: Sequence[int], target: Fraction, cfg: SolverConfig, nodes: _Nodes) -> SolverResult:
    factors = {n: prime_factors(n) for n in elems}
    target_primes = prime_factors(target.denominator)
    L, T = _in_units(elems, target)
    witness = _dfs_search(_grouped_order(elems, factors), L, T, factors, target_primes, nodes)
    if witness is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    if cfg.deterministic:
        # re-search in ascending element order: include-first DFS then
        # yields the lexicographically smallest qualifying subset
        witness = _dfs_search(elems, L, T, factors, target_primes, nodes)
        assert witness is not None
    return SolverResult(SolverStatus.FOUND, IntSet(witness), nodes.count)


# ---------------------------------------------------------------------------
# meet in the middle


def _alternating_split(elems: Sequence[int]) -> tuple[list[int], list[int]]:
    # alternating ranks keep the two halves' lcms comparable in size
    return list(elems[0::2]), list(elems[1::2])


def _enumerate_sums(half: Sequence[int], L: int, nodes: Optional[_Nodes]) -> list[int]:
    """All 2^|half| subset sums in units of 1/L (L a multiple of each element).

    Entry j is the sum over the subset {half[t] : bit t of j is set}.
    """
    out = [0]
    for n in half:
        w = L // n
        out += [s + w for s in out]
        if nodes is not None:
            nodes.spend(len(out) // 2)
    return out


def _subset(half: Sequence[int], j: int) -> tuple[int, ...]:
    return tuple(n for t, n in enumerate(half) if j >> t & 1)


def _find_meet(elems: Sequence[int], target: Fraction, cfg: SolverConfig, nodes: _Nodes) -> SolverResult:
    left, right = _alternating_split(elems)
    if 2 ** len(left) + 2 ** len(right) > cfg.node_budget:
        nodes.count = cfg.node_budget
        return SolverResult(SolverStatus.BUDGET_EXCEEDED, None, nodes.count)
    L, T = _in_units(elems, target)
    left_sums: dict[int, list[int]] = {}
    for j, s in enumerate(_enumerate_sums(left, L, nodes)):
        left_sums.setdefault(s, []).append(j)
    best: Optional[tuple[int, ...]] = None
    for jr, s in enumerate(_enumerate_sums(right, L, nodes)):
        for jl in left_sums.get(T - s, ()):
            candidate = tuple(sorted(_subset(left, jl) + _subset(right, jr)))
            if not cfg.deterministic:
                return SolverResult(SolverStatus.FOUND, IntSet(candidate), nodes.count)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    return SolverResult(SolverStatus.FOUND, IntSet(best), nodes.count)


# ---------------------------------------------------------------------------
# scaled-integer reachability (works in units of 1/lcm)


def _scaled(elems: Sequence[int], target: Fraction) -> Optional[tuple[list[int], int]]:
    """Scale the problem to integers in units of 1/L, L = lcm(elems).

    Returns the weights L/n and the scaled target T, or None when no subset
    can reach the target: every subset sum has a denominator dividing L,
    so T must be an integer, and it cannot exceed the sum of all weights.
    Raises ResourceLimitError when L or T is past its bound.
    """
    L = math.lcm(*elems)
    if L > _DP_LCM_BOUND:
        raise ResourceLimitError(f"lcm {L} exceeds the residue-DP bound {_DP_LCM_BOUND}")
    scaled = target * L
    if scaled.denominator != 1:
        return None
    T = int(scaled)
    weights = [L // n for n in elems]
    if T > sum(weights):
        return None
    if T > _DP_SUM_BOUND:
        raise ResourceLimitError(f"scaled target {T} exceeds the residue-DP bound {_DP_SUM_BOUND}")
    return weights, T


def _count_dtype(k: int):
    # a count of subsets of k elements is below 2^k, so int64 holds it up to k = 62
    return np.int64 if k <= 62 else object


def _find_residue(
    elems: Sequence[int], scaled: Optional[tuple[list[int], int]], nodes: _Nodes
) -> SolverResult:
    if scaled is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    weights, T = scaled
    cap = (1 << (T + 1)) - 1
    k = len(elems)
    reach = [0] * (k + 1)
    reach[k] = 1
    for i in range(k - 1, -1, -1):
        nodes.spend()
        reach[i] = (reach[i + 1] | (reach[i + 1] << weights[i])) & cap
    if not (reach[0] >> T) & 1:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    picked = []
    r = T
    for i in range(k):
        w = weights[i]
        if w <= r and (reach[i + 1] >> (r - w)) & 1:
            picked.append(elems[i])
            r -= w
    assert r == 0
    return SolverResult(SolverStatus.FOUND, IntSet(picked), nodes.count)


# ---------------------------------------------------------------------------
# public entry points


def _pick_strategy(elems: Sequence[int], target: Fraction) -> tuple[Strategy, Optional[tuple[list[int], int]]]:
    """The strategy ``auto`` runs, with the residue DP's ``_scaled`` result when it picks that."""
    if len(elems) >= 24:
        try:
            return Strategy.RESIDUE_DP, _scaled(elems, target)
        except ResourceLimitError:
            pass
    return Strategy.DFS_BNB, None


def find_subset(A: SetLike, target, cfg: SolverConfig = SolverConfig()) -> SolverResult:
    """Search A for a subset whose reciprocal sum equals target exactly.

    With deterministic=True the witness of a "found" result is the
    lexicographically smallest qualifying subset under ascending element
    order, regardless of strategy.
    """
    A = as_intset(A)
    target = Fraction(target)
    if target < 0:
        raise DomainError("target must be >= 0")
    elems = list(A.elements)
    strategy, scaled = cfg.strategy, None
    if strategy == Strategy.AUTO:
        strategy, scaled = _pick_strategy(elems, target)
    elif strategy == Strategy.RESIDUE_DP:
        scaled = _scaled(elems, target)
    nodes = _Nodes(cfg.node_budget)
    try:
        if strategy == Strategy.DFS_BNB:
            return _find_dfs(elems, target, cfg, nodes)
        if strategy == Strategy.MEET_MIDDLE:
            return _find_meet(elems, target, cfg, nodes)
        if strategy == Strategy.RESIDUE_DP:
            return _find_residue(elems, scaled, nodes)
    except _BudgetExhausted:
        return SolverResult(SolverStatus.BUDGET_EXCEEDED, None, nodes.count)
    raise DomainError(f"unknown strategy {cfg.strategy!r}")


def count_subsets(A: SetLike, target) -> int:
    """Exact number of subsets S of A with reciprocal sum equal to target."""
    A = as_intset(A)
    target = Fraction(target)
    if target < 0:
        return 0
    elems = list(A.elements)
    if len(elems) <= _EXHAUSTIVE_BOUND:
        left, right = _alternating_split(elems)
        L, T = _in_units(elems, target)
        counts = Counter(_enumerate_sums(left, L, None))
        return sum(counts[T - s] for s in _enumerate_sums(right, L, None))
    scaled = _scaled(elems, target)
    if scaled is None:
        return 0
    weights, T = scaled
    dp = np.zeros(T + 1, dtype=_count_dtype(len(weights)))
    dp[0] = 1
    for w in weights:
        if w <= T:
            dp[w:] = dp[w:] + dp[:-w]
    return int(dp[T])


def count_integral(A: SetLike, k: int) -> int:
    """Exact number of subsets S of A for which k * recip_sum(S) is an integer.

    Computed by dynamic programming over residues of k*(L/n) modulo
    L = lcm(A); the residue-0 count is exact.  Falls back to meet-in-the-
    middle over subset sums in units of 1/L, taken modulo L, when the lcm
    is out of range but the set is small.
    """
    A = as_intset(A)
    if k < 1:
        raise DomainError("k must be a positive integer")
    elems = list(A.elements)
    L = math.lcm(*elems)
    if L <= _DP_LCM_BOUND:
        dp = np.zeros(L, dtype=_count_dtype(len(elems)))
        dp[0] = 1
        for n in elems:
            dp = dp + np.roll(dp, (k * (L // n)) % L)
        return int(dp[0])
    if len(elems) <= _EXHAUSTIVE_BOUND:
        # k * (S_left + S_right) / L is an integer iff k * S_left = -k * S_right (mod L)
        left, right = _alternating_split(elems)
        counts = Counter((k * s) % L for s in _enumerate_sums(left, L, None))
        return sum(counts[(-k * s) % L] for s in _enumerate_sums(right, L, None))
    raise ResourceLimitError(
        f"|A|={len(elems)} exceeds the exhaustive bound and lcm {L} exceeds {_DP_LCM_BOUND}"
    )


def combine_solutions(parts: Sequence[tuple[SetLike, int]]) -> Optional[IntSet]:
    """Merge disjoint partial solutions into a unit: if some denominator d
    occurs at least d times, return the union of the first d such parts.

    Each part (S_i, d_i) must satisfy recip_sum(S_i) == 1/d_i, and the
    parts must be pairwise disjoint.  When several d qualify the smallest
    one is used.  Returns None if no d occurs often enough.
    """
    sets = []
    seen: set[int] = set()
    for i, (S, d) in enumerate(parts):
        S = as_intset(S)
        if d < 1:
            raise DomainError(f"part {i}: denominator must be positive, got {d}")
        if recip_sum(S) != Fraction(1, d):
            raise DomainError(f"part {i}: reciprocal sum is not 1/{d}")
        overlap = seen.intersection(S.elements)
        if overlap:
            raise DomainError(f"part {i}: overlaps an earlier part at {sorted(overlap)}")
        seen.update(S.elements)
        sets.append((S, d))
    by_d: dict[int, list[int]] = {}
    for i, (_, d) in enumerate(sets):
        by_d.setdefault(d, []).append(i)
    for d in sorted(by_d):
        idxs = by_d[d]
        if len(idxs) >= d:
            merged: tuple[int, ...] = ()
            for i in idxs[:d]:
                merged += sets[i][0].elements
            return IntSet(merged)
    return None


def lambda_exact(N: int, *, max_n: int = 30, node_budget: int = 10_000_000) -> tuple[Fraction, IntSet]:
    """Maximum reciprocal sum of a subset of {1..N} containing no sub-subset
    with reciprocal sum exactly 1, plus one maximizing subset.

    The singleton {1} already sums to 1, so 1 never participates.  Search
    is branch and bound over 2..N in ascending order: the include branch
    is taken first, the admissible bound is the current sum plus the
    remaining harmonic tail, and each inclusion is vetted by an exact
    subset search over the already chosen prefix.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if N > max_n:
        raise ResourceLimitError(f"N={N} exceeds the exhaustive bound {max_n}")
    universe = list(range(2, N + 1))
    m = len(universe)
    tail = [Fraction(0)] * (m + 1)
    for i in range(m - 1, -1, -1):
        tail[i] = tail[i + 1] + Fraction(1, universe[i])
    cfg = SolverConfig(strategy=Strategy.DFS_BNB, node_budget=node_budget)
    best = Fraction(0)
    best_set: tuple[int, ...] = ()

    def rec(i: int, cur: Fraction, chosen: list[int]) -> None:
        nonlocal best, best_set
        if cur + tail[i] <= best:
            return
        if i == m:
            best = cur
            best_set = tuple(chosen)
            return
        n = universe[i]
        check = find_subset(chosen, 1 - Fraction(1, n), cfg)
        if check.status == SolverStatus.BUDGET_EXCEEDED:
            raise ResourceLimitError("inner subset search exceeded its node budget")
        if check.status == SolverStatus.EXHAUSTED_NONE:
            chosen.append(n)
            rec(i + 1, cur + Fraction(1, n), chosen)
            chosen.pop()
        rec(i + 1, cur, chosen)

    rec(0, Fraction(0), [])
    return best, IntSet(best_set)
