"""Solution-free sets from large-prime dominance.

An integer n qualifies when its largest prime factor p satisfies
p * ln(p) > C * n.  For suitable C no finite selection of qualifying
integers has reciprocal sum exactly 1, which makes these sets witnesses
for lower bounds on the maximal solution-free reciprocal sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DomainError, InconclusiveError, RangeError
from .rational import IntSet, SetLike, as_intset, recip_sum
from .sieve import FactorTable
from .solver import SolverConfig, SolverStatus, find_subset


@dataclass(frozen=True)
class PomeranceReport:
    N: int
    C: float
    members: IntSet
    recip: Fraction


def _members(N: int, C: float, t: FactorTable) -> IntSet:
    """{2 <= n <= N : largest prime p of n has p*ln(p) > C*n}.

    Whether n qualifies does not depend on N, so the set for a smaller N is
    a prefix of this one.
    """
    if N < 2:
        raise RangeError(f"N must be >= 2, got {N}")
    if N > t.bound:
        raise RangeError(f"N={N} exceeds table bound {t.bound}")
    if not C > 0:
        raise DomainError(f"C must be positive, got {C}")
    n = np.arange(2, N + 1)
    largest = t.largest_primes(n)
    # math.log, not np.log: the two may differ in the last bit, which can move a member
    primes = n[largest == n]
    ln = np.zeros(N + 1)
    ln[primes] = [math.log(p) for p in primes.tolist()]
    return IntSet(n[largest * ln[largest] > C * n.astype(np.float64)].tolist())


def pomerance_set(N: int, C: float, t: FactorTable) -> PomeranceReport:
    """Collect {2 <= n <= N : largest prime p of n has p*ln(p) > C*n} and
    its exact reciprocal sum."""
    members = _members(N, C, t)
    return PomeranceReport(N=N, C=C, members=members, recip=recip_sum(members))


def verify_solution_free(A: SetLike, budget: int) -> bool:
    """Exhaustively check that no subset of A has reciprocal sum 1.

    The check is ``find_subset`` with ``auto``: A is reduced to its core
    (``reduce_to_core``), and only the core is searched, so an empty core
    proves A solution-free with no search.  The budget bounds the search's
    nodes.  Never silently false: if the budget runs out before the space
    is covered, an InconclusiveError is raised instead.
    """
    if budget <= 0:
        raise DomainError("budget must be positive")
    res = find_subset(as_intset(A), Fraction(1), SolverConfig(node_budget=budget))
    if res.status == SolverStatus.BUDGET_EXCEEDED:
        raise InconclusiveError(f"solution-freeness undecided within {budget} nodes")
    return res.status == SolverStatus.EXHAUSTED_NONE

