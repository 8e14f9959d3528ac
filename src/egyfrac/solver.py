"""Exact subset search and counting for reciprocal-sum targets.

Three interchangeable search strategies are provided.  All are exact and
complete: a "found" result carries a verified witness, an
"exhausted_none" result certifies that no qualifying subset exists, and
running out of node budget is reported as a status rather than an error.
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
    dp_lcm_bound: int = 10_000_000
    dp_sum_bound: int = 50_000_000

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


# ---------------------------------------------------------------------------
# depth-first branch and bound


def _dfs_search(
    elems: Sequence[int],
    target: Fraction,
    nodes: _Nodes,
    extra_primes: Sequence[int],
) -> Optional[tuple[int, ...]]:
    """Complete DFS over ``elems`` in the given order, include-first.

    Returns the first qualifying subset in exploration order, or None if
    none exists.  Two sound cuts are applied: the remaining suffix
    reciprocal sum must cover the deficit, and every prime left in the
    deficit's denominator must still divide some remaining element
    (otherwise it can never cancel).
    """
    k = len(elems)
    fracs = [Fraction(1, n) for n in elems]
    suffix = [Fraction(0)] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] + fracs[i]

    factor_lists = [prime_factors(n) for n in elems]
    all_primes = set(extra_primes)
    for fs in factor_lists:
        all_primes.update(fs)
    supp: set[int] = set()
    dead: list[tuple[int, ...]] = [()] * (k + 1)
    dead[k] = tuple(sorted(all_primes))
    for i in range(k - 1, -1, -1):
        supp.update(factor_lists[i])
        dead[i] = tuple(sorted(all_primes - supp))

    def rec(i: int, deficit: Fraction) -> Optional[tuple[int, ...]]:
        nodes.spend()
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
                return (elems[i],) + found
        return rec(i + 1, deficit)

    return rec(0, target)


def _grouped_order(elems: Sequence[int]) -> list[int]:
    """Order elements so that all multiples of each largest prime sit together.

    Exhaustion proofs resolve one prime at a time: once the last element
    carrying a given largest prime has been decided, any branch whose
    deficit still involves that prime is cut.  Grouping makes those spans
    as short as possible.
    """
    return sorted(elems, key=lambda n: (-prime_factors(n)[-1] if n > 1 else -1, n))


def _find_dfs(elems: Sequence[int], target: Fraction, cfg: SolverConfig, nodes: _Nodes) -> SolverResult:
    extra = prime_factors(target.denominator)
    witness = _dfs_search(_grouped_order(elems), target, nodes, extra)
    if witness is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    if cfg.deterministic:
        # re-search in ascending element order: include-first DFS then
        # yields the lexicographically smallest qualifying subset
        witness = _dfs_search(list(elems), target, nodes, extra)
        assert witness is not None
    return SolverResult(SolverStatus.FOUND, IntSet(witness), nodes.count)


# ---------------------------------------------------------------------------
# meet in the middle


def _alternating_split(elems: Sequence[int]) -> tuple[list[int], list[int]]:
    # alternating ranks keep the two halves' lcms comparable in size
    return list(elems[0::2]), list(elems[1::2])


def _enumerate_sums(half: Sequence[int], nodes: Optional[_Nodes]) -> list[tuple[Fraction, tuple[int, ...]]]:
    out: list[tuple[Fraction, tuple[int, ...]]] = [(Fraction(0), ())]
    for n in half:
        f = Fraction(1, n)
        out += [(s + f, subset + (n,)) for s, subset in out]
        if nodes is not None:
            nodes.spend(len(out) // 2)
    return out


def _find_meet(elems: Sequence[int], target: Fraction, cfg: SolverConfig, nodes: _Nodes) -> SolverResult:
    left, right = _alternating_split(elems)
    if 2 ** len(left) + 2 ** len(right) > cfg.node_budget:
        nodes.count = cfg.node_budget
        return SolverResult(SolverStatus.BUDGET_EXCEEDED, None, nodes.count)
    left_sums: dict[Fraction, list[tuple[int, ...]]] = {}
    for s, subset in _enumerate_sums(left, nodes):
        left_sums.setdefault(s, []).append(subset)
    best: Optional[tuple[int, ...]] = None
    for s, rsub in _enumerate_sums(right, nodes):
        need = target - s
        for lsub in left_sums.get(need, ()):
            candidate = tuple(sorted(lsub + rsub))
            if not cfg.deterministic:
                return SolverResult(SolverStatus.FOUND, IntSet(candidate), nodes.count)
            if best is None or candidate < best:
                best = candidate
    if best is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes.count)
    return SolverResult(SolverStatus.FOUND, IntSet(best), nodes.count)


# ---------------------------------------------------------------------------
# scaled-integer reachability (works in units of 1/lcm)


def _scaled(
    elems: Sequence[int], target: Fraction, lcm_bound: int, sum_bound: int
) -> Optional[tuple[list[int], int]]:
    """Scale the problem to integers in units of 1/L, L = lcm(elems).

    Returns the weights L/n and the scaled target T, or None when no subset
    can reach the target: every subset sum has a denominator dividing L,
    so T must be an integer, and it cannot exceed the sum of all weights.
    Raises ResourceLimitError when L or T is past its bound.
    """
    L = math.lcm(*elems)
    if L > lcm_bound:
        raise ResourceLimitError(f"lcm {L} exceeds dp_lcm_bound {lcm_bound}")
    scaled = target * L
    if scaled.denominator != 1:
        return None
    T = int(scaled)
    weights = [L // n for n in elems]
    if T > sum(weights):
        return None
    if T > sum_bound:
        raise ResourceLimitError(f"scaled target {T} exceeds dp_sum_bound {sum_bound}")
    return weights, T


def _count_dtype(k: int):
    # a count of subsets of k elements is below 2^k, so int64 holds it up to k = 62
    return np.int64 if k <= 62 else object


def _find_residue(elems: Sequence[int], target: Fraction, cfg: SolverConfig, nodes: _Nodes) -> SolverResult:
    scaled = _scaled(elems, target, cfg.dp_lcm_bound, cfg.dp_sum_bound)
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


def _pick_strategy(elems: Sequence[int], target: Fraction, cfg: SolverConfig) -> Strategy:
    if len(elems) >= 24:
        try:
            _scaled(elems, target, cfg.dp_lcm_bound, cfg.dp_sum_bound)
        except ResourceLimitError:
            return Strategy.DFS_BNB
        return Strategy.RESIDUE_DP
    return Strategy.DFS_BNB


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
    strategy = cfg.strategy
    if strategy == Strategy.AUTO:
        strategy = _pick_strategy(elems, target, cfg)
    nodes = _Nodes(cfg.node_budget)
    try:
        if strategy == Strategy.DFS_BNB:
            return _find_dfs(elems, target, cfg, nodes)
        if strategy == Strategy.MEET_MIDDLE:
            return _find_meet(elems, target, cfg, nodes)
        if strategy == Strategy.RESIDUE_DP:
            return _find_residue(elems, target, cfg, nodes)
    except _BudgetExhausted:
        return SolverResult(SolverStatus.BUDGET_EXCEEDED, None, nodes.count)
    raise DomainError(f"unknown strategy {cfg.strategy!r}")


def count_subsets(
    A: SetLike,
    target,
    *,
    exhaustive_bound: int = 24,
    dp_lcm_bound: int = 10_000_000,
    dp_sum_bound: int = 50_000_000,
) -> int:
    """Exact number of subsets S of A with reciprocal sum equal to target."""
    A = as_intset(A)
    target = Fraction(target)
    if target < 0:
        return 0
    elems = list(A.elements)
    if len(elems) <= exhaustive_bound:
        left, right = _alternating_split(elems)
        counts = Counter(s for s, _ in _enumerate_sums(left, None))
        return sum(counts[target - s] for s, _ in _enumerate_sums(right, None))
    scaled = _scaled(elems, target, dp_lcm_bound, dp_sum_bound)
    if scaled is None:
        return 0
    weights, T = scaled
    dp = np.zeros(T + 1, dtype=_count_dtype(len(weights)))
    dp[0] = 1
    for w in weights:
        if w <= T:
            dp[w:] = dp[w:] + dp[:-w]
    return int(dp[T])


def count_integral(
    A: SetLike,
    k: int,
    *,
    exhaustive_bound: int = 24,
    dp_lcm_bound: int = 10_000_000,
) -> int:
    """Exact number of subsets S of A for which k * recip_sum(S) is an integer.

    Computed by dynamic programming over residues of k*(L/n) modulo
    L = lcm(A); the residue-0 count is exact.  Falls back to meet-in-the-
    middle over fractional parts when the lcm is out of range but the set
    is small.
    """
    A = as_intset(A)
    if k < 1:
        raise DomainError("k must be a positive integer")
    elems = list(A.elements)
    L = math.lcm(*elems)
    if L <= dp_lcm_bound:
        dp = np.zeros(L, dtype=_count_dtype(len(elems)))
        dp[0] = 1
        for n in elems:
            dp = dp + np.roll(dp, (k * (L // n)) % L)
        return int(dp[0])
    if len(elems) <= exhaustive_bound:
        left, right = _alternating_split(elems)
        counts = Counter((k * s) % 1 for s, _ in _enumerate_sums(left, None))
        return sum(counts[(-k * s) % 1] for s, _ in _enumerate_sums(right, None))
    raise ResourceLimitError(
        f"|A|={len(elems)} exceeds the exhaustive bound and lcm {L} exceeds {dp_lcm_bound}"
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
