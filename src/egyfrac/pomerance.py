"""Solution-free sets from large-prime dominance.

An integer n qualifies when its largest prime factor p satisfies
p * ln(p) > C * n.  For suitable C no finite selection of qualifying
integers has reciprocal sum exactly 1, which makes these sets witnesses
for lower bounds on the maximal solution-free reciprocal sum.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

from .errors import DomainError, InconclusiveError, RangeError
from .rational import IntSet, SetLike, as_intset, format_rational, recip_sum
from .sieve import FactorTable, largest_prime
from .solver import SolverConfig, SolverStatus, Strategy, find_subset


@dataclass(frozen=True)
class PomeranceReport:
    N: int
    C: float
    members: IntSet
    recip: Fraction
    verified_free: Optional[bool]
    verify_budget: int

    def to_json_dict(self) -> dict:
        return {
            "N": self.N,
            "C": self.C,
            "size": len(self.members),
            "members": list(self.members),
            "recip": format_rational(self.recip),
            "recip_float": float(self.recip),
            "verified_free": self.verified_free,
            "verify_budget": self.verify_budget,
        }


def _qualifies(n: int, C: float, t: FactorTable) -> bool:
    p = largest_prime(n, t)
    return p * math.log(p) > C * n


def pomerance_set(N: int, C: float, t: FactorTable) -> PomeranceReport:
    """Collect {2 <= n <= N : largest prime p of n has p*ln(p) > C*n}."""
    if N < 2:
        raise RangeError(f"N must be >= 2, got {N}")
    if N > t.bound:
        raise RangeError(f"N={N} exceeds table bound {t.bound}")
    if C <= 0:
        raise DomainError("C must be positive")
    members = IntSet(n for n in range(2, N + 1) if _qualifies(n, C, t))
    return PomeranceReport(
        N=N,
        C=C,
        members=members,
        recip=recip_sum(members),
        verified_free=None,
        verify_budget=0,
    )


def verify_solution_free(A: SetLike, budget: int) -> bool:
    """Exhaustively check that no subset of A has reciprocal sum 1.

    Never silently false: if the search budget runs out before the space
    is covered, an InconclusiveError is raised instead.
    """
    if budget <= 0:
        raise DomainError("budget must be positive")
    cfg = SolverConfig(strategy=Strategy.DFS_BNB, node_budget=budget)
    res = find_subset(as_intset(A), Fraction(1), cfg)
    if res.status == SolverStatus.BUDGET_EXCEEDED:
        raise InconclusiveError(f"solution-freeness undecided within {budget} nodes")
    return res.status == SolverStatus.EXHAUSTED_NONE


def verify_report(report: PomeranceReport, budget: int = 10_000_000) -> PomeranceReport:
    """Return a copy of the report with the verification fields filled in."""
    free = verify_solution_free(report.members, budget)
    return replace(report, verified_free=free, verify_budget=budget)
