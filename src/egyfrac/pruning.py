"""Greedy pruning procedures with certified exit conditions.

prune_ppower repeatedly deletes the lightest prime-power class until
every remaining class carries mass at least theta.  prune_to_window then
trims single elements, one at a time, until the reciprocal sum drops into
the half-open window [alpha - 1/M, alpha).  Both are deterministic:
always the smallest failing prime power, always the smallest candidate
element.  All comparisons are exact rationals.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InfeasibleError
from .rational import IntSet, SetLike, as_intset, format_rational, recip_sum
from .sieve import FactorTable, exact_prime_powers


@dataclass(frozen=True)
class PruneTrace:
    """Audit log of one pruning run.

    removed_qs lists the prime powers whose classes were deleted, in
    removal order; no prime power can appear twice, because once its
    class is gone nothing left carries it as an exact divisor.
    """

    removed_qs: tuple[int, ...]
    removed_elements: tuple[int, ...]
    final: IntSet
    r_initial: Fraction
    r_final: Fraction

    def to_json_dict(self) -> dict:
        return {
            "removed_qs": list(self.removed_qs),
            "removed_elements": list(self.removed_elements),
            "final": list(self.final),
            "r_initial": format_rational(self.r_initial),
            "r_final": format_rational(self.r_final),
        }


class _ClassIndex:
    """The prime-power classes of a shrinking set, with their exact masses.

    ppowers maps each element of the set to its exact prime powers.  A
    class is light when its mass is below theta.  Masses only fall as
    elements leave, so a light class stays light until it empties; the
    light heap therefore holds every light class, plus emptied ones that
    are skipped when they reach the top.  One removal costs O(omega(n)).
    """

    def __init__(self, A: IntSet, theta: Fraction, t: FactorTable):
        if A and A.elements[0] < 2:
            raise DomainError("elements must be >= 2")
        self.theta = theta
        self.ppowers = {n: exact_prime_powers(n, t) for n in A}
        self.classes: dict[int, set[int]] = {}
        self.masses: dict[int, Fraction] = {}
        for n, qs in self.ppowers.items():
            for q in qs:
                self.classes.setdefault(q, set()).add(n)
                self.masses[q] = self.masses.get(q, Fraction(0)) + Fraction(q, n)
        self.light = [q for q, m in self.masses.items() if m < theta]
        heapq.heapify(self.light)

    def remove(self, n: int) -> None:
        for q in self.ppowers.pop(n):
            cls = self.classes[q]
            cls.remove(n)
            if not cls:
                del self.classes[q], self.masses[q]
                continue
            old = self.masses[q]
            self.masses[q] = new = old - Fraction(q, n)
            if new < self.theta <= old:
                heapq.heappush(self.light, q)

    def smallest_light(self) -> int | None:
        """The smallest prime power whose class is light, or None."""
        while self.light and self.light[0] not in self.classes:
            heapq.heappop(self.light)
        return self.light[0] if self.light else None

    def prune(self) -> tuple[list[int], list[int]]:
        """Delete the light class of the smallest prime power until none is light.

        Returns the deleted prime powers and elements in removal order.
        The result is the largest subset whose classes all weigh at least
        theta, whatever the order: an element of a light class belongs to
        no such subset, since a subset's masses are at most the set's.
        """
        removed_qs: list[int] = []
        removed_elements: list[int] = []
        while (q := self.smallest_light()) is not None:
            victims = sorted(self.classes[q])
            removed_qs.append(q)
            removed_elements.extend(victims)
            for n in victims:
                self.remove(n)
        return removed_qs, removed_elements


def prune_ppower(A: SetLike, theta, t: FactorTable) -> PruneTrace:
    """Delete light prime-power classes until all have mass >= theta.

    One step removes the whole class of the smallest prime power q with
    mass below theta.  The final set B satisfies mass(B; q) >= theta for
    every prime power q of B, and the total loss is below
    theta * sum(1/q over prime powers of A).
    """
    A = as_intset(A)
    theta = Fraction(theta)
    if theta < 0:
        raise DomainError("theta must be >= 0")
    index = _ClassIndex(A, theta, t)
    removed_qs, removed_elements = index.prune()
    final = IntSet(index.ppowers)
    return PruneTrace(
        removed_qs=tuple(removed_qs),
        removed_elements=tuple(removed_elements),
        final=final,
        r_initial=recip_sum(A),
        r_final=recip_sum(final),
    )


def prune_to_window(A: SetLike, alpha, theta, M: int, t: FactorTable) -> PruneTrace:
    """Trim single elements until the reciprocal sum lands in [alpha - 1/M, alpha).

    Each iteration pre-prunes the working set at threshold 2*theta and
    removes its smallest surviving element; since every element is at
    least M, one removal lowers the sum by at most 1/M, which certifies
    the window on normal exit.  With theta > 0 every prime power of A
    must satisfy q <= M * theta, and the per-class floor
    mass(D; q) >= theta is re-checked after every removal; theta = 0
    disables the floor entirely (no mass is below 0) and gives a pure
    window trimmer.

    The pre-prune of W is its largest subset core(W) whose classes all
    weigh at least 2*theta, and core(W - {x}) = core(core(W) - {x}), so
    one index over the core is carried from step to step next to one over
    the working set, and neither is rebuilt.
    """
    A = as_intset(A)
    alpha = Fraction(alpha)
    theta = Fraction(theta)
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if M < 1:
        raise DomainError("M must be >= 1")
    r_initial = recip_sum(A)
    if r_initial < alpha:
        raise DomainError(f"need recip_sum(A) >= alpha, got {r_initial} < {alpha}")
    for n in A:
        if not M <= n <= t.bound:
            raise DomainError(f"element {n} outside [{M}, {t.bound}]")
    working = _ClassIndex(A, theta, t)
    if theta > 0:
        for q in working.classes:
            if q > M * theta:
                raise DomainError(f"prime power {q} exceeds M*theta = {M * theta}")
    core = _ClassIndex(A, 2 * theta, t)
    core.prune()
    order = iter(A.elements)
    r = r_initial
    removed: list[int] = []
    while r >= alpha:
        if not core.ppowers:
            raise InfeasibleError(
                "pre-prune at 2*theta emptied the set while the sum is still >= alpha"
            )
        x = next(n for n in order if n in core.ppowers)
        working.remove(x)
        core.remove(x)
        core.prune()
        r -= Fraction(1, x)
        removed.append(x)
        if working.smallest_light() is not None:
            bad = sorted(q for q in working.light if q in working.classes)
            raise InfeasibleError(
                f"per-class floor theta lost at prime powers {bad} after removing {x}"
            )
    return PruneTrace(
        removed_qs=(),
        removed_elements=tuple(removed),
        final=IntSet(working.ppowers),
        r_initial=r_initial,
        r_final=r,
    )
