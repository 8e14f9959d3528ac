"""Exact subset search and counting for reciprocal-sum targets.

Three interchangeable search strategies are provided.  All are exact and
complete: a "found" result carries a verified witness, an
"exhausted_none" result certifies that no qualifying subset exists, and
running out of node budget is reported as a status rather than an error.
Each strategy counts its own nodes and hands its witness and count to
``_result``, the one rule that turns them into a status.

Every search and both counters work in integer units of 1/L, L = lcm(A),
as scaled once by ``_scaled``: element n weighs L/n, a subset sum is an
int, and no Fraction is formed per node.  The target t is then the integer
T = t*L, or no subset reaches it: when t*L is not an integer or lies
outside [0, sum of the weights], every strategy answers "exhausted_none"
in 0 nodes and ``count_subsets`` answers 0.

Before ``auto`` searches, ``reduce_to_core`` removes the elements that lie
in no solution, one prime at a time.  For a prime p let P = p^v, with v
the largest exponent of p in an element or in the target's denominator.
If S has reciprocal sum t, the elements of S prime to p add up to a
p-integral number, so P times their sum vanishes mod P and

    sum over n in S with p | n of P/n  ==  P*t  (mod P)

as p-adic integers.  For n = p^a * m this is a subset-sum condition on
the residues p^(v-a) * m^(-1) mod P over p's class, the multiples of p
in A: the classes A_q of the paper, read through one prime at a time.  A
reachability DP over residues mod P removes the elements that no subset
of their class carries to P*t, and repeats until no prime removes
anything.  An empty core proves that no subset reaches t without any
search.

``lambda_exact`` reduces [2, N] with target 1.  The elements U it removes
lie in no solution, so a solution-free set stays solution-free when U is
added, and lambda(N) = R(U) + lambda(core).  Its branch and bound runs on
the core alone, in units of 1/L with L = lcm(core), and keeps the subset
sums of the chosen elements as one (L+1)-bit int.  Bit L - L/n of that
int is set iff some chosen elements sum to 1 - 1/n, that is, iff adding n
would complete a solution; n is included only while the bit is clear.

Every DP table, a run of sets from the one reachability kernel
``_subset_sums`` or a count array of its counting twin ``_count_sums``, is
checked against ``_BYTE_BUDGET`` before it is allocated.  ``_count_sums``
meets in the middle up to ``_EXHAUSTIVE_BOUND`` weights and runs its DP
past them; ``_meet``, over sorted numpy arrays of subset sums, is the one
meet in the middle of that count and of the ``meet_middle`` search.
"""
from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence

import numpy as np

from .errors import DomainError, ResourceLimitError
from .rational import IntSet, SetLike, as_intset, recip_sum
from .sieve import Factorization, factorize_all

# _count_sums meets in the middle up to this many weights and runs its DP past them
_EXHAUSTIVE_BOUND = 24
# the bytes a DP table may hold: past them the residue DP and the counters raise,
# auto runs dfs_bnb, reduce_to_core skips a prime and lambda_exact refuses N
_BYTE_BUDGET = 1 << 25


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
        if self.strategy not in list(Strategy):
            raise DomainError(f"unknown strategy {self.strategy!r}")
        if self.node_budget <= 0:
            raise DomainError("node_budget must be positive")


@dataclass(frozen=True)
class SolverResult:
    """A search's status, its witness when "found", and the nodes it spent.

    ``nodes_explored`` counts, for dfs_bnb, the nodes visited, or
    node_budget + 1 when the budget cuts the search; for meet_middle over
    k elements, 2^ceil(k/2) + 2^floor(k/2) - 2, refused before enumerating
    when that passes node_budget; for residue_dp, |A|.  It is 0 when
    ``_scaled`` rules the target out before any search.
    """

    status: SolverStatus
    witness: Optional[IntSet]
    nodes_explored: int

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "nodes": self.nodes_explored,
        }


def _result(witness: Optional[Sequence[int]], nodes: int, budget: int) -> SolverResult:
    """The result of a search that spent ``nodes`` nodes: past the budget it
    is cut, and otherwise it found ``witness`` or proved that none exists."""
    if nodes > budget:
        return SolverResult(SolverStatus.BUDGET_EXCEEDED, None, nodes)
    if witness is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, nodes)
    return SolverResult(SolverStatus.FOUND, IntSet(witness), nodes)


def _scaled(elems: Sequence[int], target: Fraction) -> Optional[tuple[int, list[int], int]]:
    """L = lcm(elems), the weights L/n and the target T in units of 1/L, or None
    when no subset reaches the target: a subset sum in these units is an
    integer between 0 and the weights' sum."""
    L = math.lcm(*elems)
    weights = [L // n for n in elems]
    T = target.numerator * (L // target.denominator)
    if L % target.denominator or not 0 <= T <= sum(weights):
        return None
    return L, weights, T


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
    factors: dict[int, Factorization],
    limit: int,
) -> tuple[Optional[tuple[int, ...]], int]:
    """Complete DFS over ``order``, include-first, in units of 1/L.

    L is the lcm of the elements, element n weighs L/n and the target is
    the integer T (see ``_scaled``).  Returns the first qualifying subset
    in exploration order, or None if none exists, and the nodes visited;
    the search stops at node ``limit + 1`` with None.  Two sound cuts are
    applied: the remaining suffix weight must cover the deficit D, and
    every prime left in the deficit's denominator must still divide some
    remaining element (otherwise it can never cancel).  A prime p is in
    that denominator iff p^v_p(L) does not divide D.  A node's parent has
    already cleared every prime its own suffix lacks, and the element
    between them is coprime to those, so each node tests only the primes
    whose last carrier is the element just decided; the root tests none,
    since each prime of L divides an element.

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
    last = {p: i + 1 for i, n in enumerate(order) for p, _ in factors[n]}
    for p, i in last.items():
        dying[i].append(_prime_power_part(L, p))

    chosen = [False] * k
    stack = [(0, T, False)]
    count = 0
    while stack:
        i, D, included = stack.pop()
        count += 1
        if count > limit:
            return None, count
        if i:
            chosen[i - 1] = included
        if D == 0:
            return tuple(order[j] for j in range(i) if chosen[j]), count
        if i == k or suffix[i] < D:
            continue
        for q in dying[i]:
            if D % q:
                break
        else:
            stack.append((i + 1, D, False))
            if weights[i] <= D:
                stack.append((i + 1, D - weights[i], True))
    return None, count


def _grouped_order(elems: Sequence[int], factors: dict[int, Factorization]) -> list[int]:
    """Order elements so that all multiples of each largest prime sit together.

    Exhaustion proofs resolve one prime at a time: once the last element
    carrying a given largest prime has been decided, any branch whose
    deficit still involves that prime is cut.  Grouping makes those spans
    as short as possible.
    """
    return sorted(elems, key=lambda n: (-factors[n][-1][0] if n > 1 else -1, n))


def _find_dfs(
    elems: Sequence[int], L: int, T: int, cfg: SolverConfig, factors: dict[int, Factorization]
) -> SolverResult:
    budget = cfg.node_budget
    witness, nodes = _dfs_search(_grouped_order(elems, factors), L, T, factors, budget)
    if witness is not None and cfg.deterministic:
        # re-search in ascending element order: include-first DFS then
        # yields the lexicographically smallest qualifying subset
        witness, more = _dfs_search(elems, L, T, factors, budget - nodes)
        nodes += more
        assert witness is not None or nodes > budget
    return _result(witness, nodes, budget)


# ---------------------------------------------------------------------------
# meet in the middle


def _alternating_split(items: Sequence[int]) -> tuple[list[int], list[int]]:
    # alternating ranks keep the two halves' weight sums comparable in size
    return list(items[0::2]), list(items[1::2])


def _enumerate_sums(weights: Sequence[int], top: int = 0) -> np.ndarray:
    """All 2^|weights| subset sums of the weights, as int64 when the weights'
    total and ``top``, a bound the caller puts on what it computes from the
    sums, are below 2^62, and as Python ints past it.

    Entry j is the sum over the subset {weights[t] : bit t of j is set}: each
    weight doubles the array, its new half the old one plus the weight.
    """
    dtype = np.int64 if max(sum(weights), top) < 1 << 62 else object
    out = np.zeros(1 << len(weights), dtype=dtype)
    for t, w in enumerate(weights):
        np.add(out[: 1 << t], w, out=out[1 << t : 2 << t])
    return out


def _meet(weights: Sequence[int], r: int, top: int, modulus: Optional[int]) -> tuple[np.ndarray, ...]:
    """Meet in the middle over the subset sums of two alternating halves of
    the weights (``_enumerate_sums``, with ``top`` bounding r, the modulus
    and every sum and difference, so both halves take one dtype).

    Returns (order, lo, hi): ``order`` sorts the left half's sums, and the
    left subsets order[lo[j] : hi[j]], in no set order, are those whose sum
    completes right subset j to r, mod ``modulus`` unless it is None.
    """
    left, right = (_enumerate_sums(half, top) for half in _alternating_split(weights))
    needed = r - right
    if modulus is not None:
        left %= modulus
        needed %= modulus
    order = np.argsort(left)
    left = left[order]
    return order, np.searchsorted(left, needed, side="left"), np.searchsorted(left, needed, side="right")


def _subset(half: Sequence[int], j: int) -> tuple[int, ...]:
    return tuple(n for t, n in enumerate(half) if j >> t & 1)


def _find_meet(elems: Sequence[int], weights: Sequence[int], T: int, cfg: SolverConfig) -> SolverResult:
    left, right = _alternating_split(elems)
    # each element of a half spends one node per sum it adds
    nodes = 2 ** len(left) + 2 ** len(right) - 2
    if nodes > cfg.node_budget:
        return _result(None, nodes, cfg.node_budget)
    order, lo, hi = _meet(weights, T, sum(weights), None)
    best: Optional[tuple[int, ...]] = None
    for jr in np.flatnonzero(hi > lo).tolist():
        # ascending jl, so that the first hit does not depend on the sort
        for jl in np.sort(order[lo[jr] : hi[jr]]).tolist():
            candidate = tuple(sorted(_subset(left, jl) + _subset(right, jr)))
            if not cfg.deterministic:
                return _result(candidate, nodes, cfg.node_budget)
            if best is None or candidate < best:
                best = candidate
    return _result(best, nodes, cfg.node_budget)


# ---------------------------------------------------------------------------
# scaled-integer reachability (works in units of 1/lcm)


def _check_bytes(nbytes: int, what: str) -> None:
    if nbytes > _BYTE_BUDGET:
        raise ResourceLimitError(f"{what} would hold {nbytes} bytes, past the budget of {_BYTE_BUDGET}")


def _sets_bytes(weights: Sequence[int], width: int, cyclic: bool = False) -> int:
    """Bytes of the sets of ``_subset_sums``: each holds at most ``width``
    bits, and a linear one at most the sum of its prefix plus one."""
    bits = (len(weights) + 1) * width if cyclic else sum(min(width, s + 1) for s in accumulate(weights, initial=0))
    return -(-bits // 8)


def _subset_sums(weights: Sequence[int], width: int, cyclic: bool = False) -> list[int]:
    """The subset sums of weights[:j], j = 0..len(weights), as ``width``-bit
    ints: mod ``width`` when ``cyclic`` (a weight rotates), else cut at
    ``width``, which bounds each shift too.  Raises ResourceLimitError
    before building any when all would pass the byte budget."""
    _check_bytes(_sets_bytes(weights, width, cyclic), "the sets of subset sums")
    mask = (1 << width) - 1
    x = 1
    sets = [x]
    for w in weights:
        x |= ((x << w) | (x >> (width - w)) if cyclic else x << min(w, width)) & mask
        sets.append(x)
    return sets


def _count_sums(weights: Sequence[int], r: int, width: int, cyclic: bool = False) -> int:
    """The number of subsets of the weights that sum to r, the counting twin
    of ``_subset_sums``: mod ``width`` when ``cyclic``, else exactly, r < width.

    Up to ``_EXHAUSTIVE_BOUND`` weights it meets in the middle through
    ``_meet``, the kernel ``_find_meet`` searches with: the left sums are
    sorted, and two binary searches count the left sums equal to each right
    sum's complement.  Past that it runs a DP over a table of
    ``width`` counts: int64 up to 62 weights, since a count is below 2^k for
    k weights, and past that pointers to ints of at most 32 + 8 * (k // 30)
    bytes.  Raises ResourceLimitError before allocating when the table and
    the temporary of a DP step would pass the byte budget.
    """
    k = len(weights)
    if k <= _EXHAUSTIVE_BOUND:
        _, lo, hi = _meet(weights, r, sum(weights) + width, width if cyclic else None)
        return int((hi - lo).sum())
    dtype, entry = (np.int64, 8) if k <= 62 else (object, 8 + 32 + 8 * (k // 30))
    _check_bytes(2 * width * entry, "the table of subset-sum counts")
    dp = np.zeros(width, dtype=dtype)
    dp[0] = 1
    for w in weights:
        if cyclic:
            dp += np.roll(dp, w)
        else:
            dp[w:] += dp[:-w]
    return int(dp[r])


def _find_residue(elems: Sequence[int], weights: Sequence[int], T: int, budget: int) -> SolverResult:
    nodes = len(elems)
    if nodes > budget:
        return _result(None, nodes, budget)
    # suffix[j] holds the subset sums of the last j elements
    suffix = _subset_sums(weights[::-1], T + 1)
    if not suffix[-1] >> T & 1:
        return _result(None, nodes, budget)
    picked = []
    r = T
    for n, w, rest in zip(elems, weights, reversed(suffix[:-1])):
        if w <= r and (rest >> (r - w)) & 1:
            picked.append(n)
            r -= w
    assert r == 0
    return _result(picked, nodes, budget)


# ---------------------------------------------------------------------------
# prime-by-prime reduction to a core


@dataclass(frozen=True)
class CoreReduction:
    """What ``reduce_to_core`` proved about a set A and a target t.

    Every subset of A with reciprocal sum t lies inside ``core``.  The
    certificate is ``steps``: in order, each prime p that removed elements
    and the elements it removed.  When a step is taken, no subset of p's
    class among the elements still present (A minus the earlier steps'
    removals) meets p's congruence and contains the removed element; an
    element prime to p is removed only when no subset of the class meets it
    at all.  ``skipped`` lists the primes whose last test was skipped
    because its DP would pass the byte budget: the core is a fixpoint for
    every other prime.
    """

    core: IntSet
    steps: tuple[tuple[int, tuple[int, ...]], ...]
    skipped: tuple[int, ...]

    @property
    def removed(self) -> IntSet:
        """The elements of A outside the core."""
        return IntSet(n for _, dead in self.steps for n in dead)


def _dead_members(p: int, v: int, r: int, cls: dict[int, int]) -> Optional[list[int]]:
    """The members of p's class that no subset of the class carries to the
    residue r mod P = p^v, or None when no subset reaches r at all.

    ``cls`` maps each member n = p^a * m to a; its weight P/n is the residue
    p^(v-a) * m^(-1) mod P.  The residue sets are cyclic sets of
    ``_subset_sums``, which raises past the byte budget.  ``fwd[i]`` holds
    the subset sums of the first i members and ``back`` the negated subset
    sums of the members after member i, so member i lies in a subset that
    reaches r iff fwd[i] meets back rotated by r - w_i.
    """
    P = p**v
    members = list(cls)
    weights = [p ** (v - a) * pow(n // p**a, -1, P) % P for n, a in cls.items()]
    fwd = _subset_sums(weights, P, cyclic=True)
    if not fwd[-1] >> r & 1:
        return None
    mask = (1 << P) - 1
    dead = []
    back = 1
    for i in range(len(members) - 1, -1, -1):
        w = weights[i]
        s = (r - w) % P
        if not fwd[i] & ((back << s) | (back >> (P - s))):
            dead.append(members[i])
        if i:
            back |= ((back << P - w) | (back >> w)) & mask
    return dead


def _reduce(elems: list[int], target: Fraction, factors: dict[int, Factorization]) -> CoreReduction:
    num, den = target.numerator, target.denominator
    den_exp = dict(factorize_all([den])[den])
    # classes[p] maps each present multiple of p to its exponent of p
    classes: defaultdict[int, dict[int, int]] = defaultdict(dict)
    for n in elems:
        for p, a in factors[n]:
            classes[p][n] = a
    alive = set(elems)
    queued = classes.keys() | den_exp.keys()
    queue = [-p for p in queued]
    heapq.heapify(queue)
    steps = []
    skipped = set()
    while queue and alive:
        p = -heapq.heappop(queue)
        queued.remove(p)
        cls = classes[p]
        e = den_exp.get(p, 0)
        v = max(cls.values(), default=0)
        if e > v:
            # every weight is a multiple of p and P*t is not
            dead = None
        elif v == 0:
            continue
        else:
            P = p**v
            # P*t is p-integral; it is a multiple of P unless p divides t's denominator
            r = num * (P // p**e) * pow(den // p**e, -1, P) % P if e else 0
            try:
                dead = _dead_members(p, v, r, cls)
            except ResourceLimitError:
                skipped.add(p)
                continue
            skipped.discard(p)
        if dead is None:
            dead = list(alive)
        if not dead:
            continue
        steps.append((p, tuple(sorted(dead))))
        for n in dead:
            alive.remove(n)
            for q, _ in factors[n]:
                del classes[q][n]
                # p itself needs no new test: the subsets that kept its
                # remaining members contain no removed element
                if q != p and q not in queued:
                    queued.add(q)
                    heapq.heappush(queue, -q)
    return CoreReduction(
        core=IntSet(n for n in elems if n in alive),
        steps=tuple(steps),
        skipped=tuple(sorted(skipped)),
    )


def reduce_to_core(A: SetLike, target) -> CoreReduction:
    """Remove from A the elements that some prime's p-adic condition (see
    the module docstring) shows to lie in no subset with reciprocal sum
    ``target``.

    Primes are tested largest first.  A removal shrinks the classes of the
    removed element's other primes, which are then tested again, until no
    test removes anything.  When no subset of some class meets its
    congruence at all, A has no solution and every element is removed.  A
    prime whose (|class| + 1) P-bit sets would pass ``_BYTE_BUDGET`` bytes
    is skipped, which leaves the result sound.
    """
    A = as_intset(A)
    target = Fraction(target)
    if target < 0:
        raise DomainError("target must be >= 0")
    elems = list(A.elements)
    return _reduce(elems, target, factorize_all(elems))


# ---------------------------------------------------------------------------
# public entry points


def _pick_strategy(weights: Sequence[int], T: int) -> Strategy:
    """The strategy ``auto`` runs: the residue DP from 24 elements on, unless its sets would pass the byte budget."""
    # _find_residue runs the weights last to first
    if len(weights) >= 24 and _sets_bytes(weights[::-1], T + 1) <= _BYTE_BUDGET:
        return Strategy.RESIDUE_DP
    return Strategy.DFS_BNB


def find_subset(A: SetLike, target, cfg: SolverConfig = SolverConfig()) -> SolverResult:
    """Search A for a subset whose reciprocal sum equals target exactly.

    With deterministic=True the witness of a "found" result is the
    lexicographically smallest qualifying subset under ascending element
    order, regardless of strategy.  ``auto`` first reduces A to its core
    (``reduce_to_core``), which holds every solution, so the witness is the
    same.  The explicit strategies search A as given.  Every strategy
    answers "exhausted_none" in 0 nodes when the set it would search rules
    the target out in units of 1/lcm (see ``_scaled``): the target's
    denominator does not divide the lcm, or the target passes the set's
    reciprocal sum.  An empty core with a nonzero target is such a case.
    """
    A = as_intset(A)
    target = Fraction(target)
    if target < 0:
        raise DomainError("target must be >= 0")
    elems = list(A.elements)
    strategy, factors = cfg.strategy, None
    if strategy == Strategy.AUTO:
        factors = factorize_all(elems)
        elems = list(_reduce(elems, target, factors).core.elements)
    scaled = _scaled(elems, target)
    if scaled is None:
        return SolverResult(SolverStatus.EXHAUSTED_NONE, None, 0)
    L, weights, T = scaled
    if strategy == Strategy.AUTO:
        strategy = _pick_strategy(weights, T)
    if strategy == Strategy.MEET_MIDDLE:
        return _find_meet(elems, weights, T, cfg)
    if strategy == Strategy.RESIDUE_DP:
        return _find_residue(elems, weights, T, cfg.node_budget)
    if factors is None:
        factors = factorize_all(elems)
    return _find_dfs(elems, L, T, cfg, factors)


def count_subsets(A: SetLike, target) -> int:
    """Exact number of subsets S of A with reciprocal sum equal to target.

    Counts the subsets of the weights L/n, L = lcm(A), that sum to the
    target T in units of 1/L (``_count_sums`` with T + 1 sums); 0 when the
    target has no such T.
    """
    scaled = _scaled(as_intset(A).elements, Fraction(target))
    if scaled is None:
        return 0
    _, weights, T = scaled
    return _count_sums(weights, T, T + 1)


def count_integral(A: SetLike, k: int) -> int:
    """Exact number of subsets S of A for which k * recip_sum(S) is an integer.

    In units of 1/L, L = lcm(A), k * recip_sum(S) is an integer iff the
    residues k*(L/n) mod L over S sum to 0 mod L: ``_count_sums`` counts
    them cyclically, over L residues.
    """
    A = as_intset(A)
    if k < 1:
        raise DomainError("k must be a positive integer")
    L = math.lcm(*A.elements)
    return _count_sums([k * (L // n) % L for n in A.elements], 0, L, cyclic=True)


def combine_solutions(parts: Sequence[tuple[SetLike, int]]) -> Optional[IntSet]:
    """Merge disjoint partial solutions into a unit: if some denominator d
    occurs at least d times, return the union of the first d such parts.

    Each part (S_i, d_i) must satisfy recip_sum(S_i) == 1/d_i, and the
    parts must be pairwise disjoint.  When several d qualify the smallest
    one is used.  Returns None if no d occurs often enough.
    """
    by_d: defaultdict[int, list[IntSet]] = defaultdict(list)
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
        by_d[d].append(S)
    d = min((e for e, sets in by_d.items() if len(sets) >= e), default=None)
    return None if d is None else IntSet(n for S in by_d[d][:d] for n in S.elements)


def lambda_exact(N: int, *, node_budget: int = 10_000_000) -> tuple[Fraction, IntSet]:
    """Maximum reciprocal sum of a subset of {1..N} containing no sub-subset
    with reciprocal sum exactly 1, plus one maximizing subset.

    The singleton {1} already sums to 1, so 1 never participates.  Only
    the core of [2, N] is searched (see the module docstring): branch and
    bound in ascending order, include first, with the current sum plus the
    remaining suffix sum as the bound and the reachability bit vetting each
    inclusion.  The witness, the removed elements and the first maximizer
    in that order, is the one a search over all of [2, N] finds first.
    Raises ResourceLimitError before the search when its bitsets, at depth
    j the j-th set of ``_subset_sums`` over the core, would pass the byte
    budget, and once it visits more than ``node_budget`` nodes.
    """
    if N < 1:
        raise DomainError("N must be >= 1")
    if node_budget <= 0:
        raise DomainError("node_budget must be positive")
    red = reduce_to_core(range(2, N + 1), 1)
    removed, core = red.removed, red.core.elements
    m = len(core)
    L = math.lcm(*core)
    weights = [L // n for n in core]
    _check_bytes(_sets_bytes(weights, L + 1), f"N={N}: {m + 1} bitsets of up to lcm(core) + 1 = {L + 1} bits")
    tail = list(accumulate(reversed(weights), initial=0))[::-1]
    cap = (1 << (L + 1)) - 1
    chosen = [False] * m
    best, best_set = 0, ()
    # a node is (depth, sum of the chosen elements, their subset sums, whether core[depth - 1] is chosen)
    stack = [(0, 0, 1, False)]
    nodes = 0
    while stack:
        i, cur, reach, included = stack.pop()
        nodes += 1
        if nodes > node_budget:
            raise ResourceLimitError(f"N={N}: the search passed its node budget {node_budget}")
        if i:
            chosen[i - 1] = included
        if cur + tail[i] <= best:
            continue
        if i == m:
            best, best_set = cur, tuple(n for n, c in zip(core, chosen) if c)
            continue
        w = weights[i]
        stack.append((i + 1, cur, reach, False))
        if not reach >> (L - w) & 1:
            stack.append((i + 1, cur + w, (reach | reach << w) & cap, True))
    return recip_sum(removed) + Fraction(best, L), removed.union(best_set)
