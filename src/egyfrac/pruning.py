"""Greedy pruning procedures with certified exit conditions.

prune_ppower repeatedly deletes the lightest prime-power class until
every remaining class carries mass at least theta.  prune_to_window then
trims single elements, one at a time, until the reciprocal sum drops into
the half-open window [alpha - 1/M, alpha).  Both are deterministic:
always the smallest failing prime power, always the smallest candidate
element.  All comparisons are exact rationals.

Both run on a class index built from one ``build_decomposition`` of the
input: the index copies its classes and weighs each with ``pair_sum``,
and prune_to_window builds its two indexes from the same decomposition,
the second with the first one's masses.  At theta = 0 prune_to_window
builds no decomposition and no class index: no class can weigh less than
0, so it only trims.  Masses and the running sum are num/den pairs, the
masses unreduced: a class's denominator is the lcm of its members, so a
removal costs one small gcd and one division, and theta is compared by
cross-multiplying.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .decomposition import Decomposition, build_decomposition
from .errors import DomainError, InfeasibleError
from .rational import IntSet, SetLike, _gcd_add, as_intset, format_rational, pair_sum, recip_sum
from .sieve import FactorTable


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

    The classes start as copies of a decomposition's parts; ppowers maps
    each element of the set to its exact prime powers.  A class is light
    when its mass is below theta.  Masses only fall as elements leave, so a
    light class stays light until it empties; the light heap therefore
    holds every light class, plus emptied ones that are skipped when they
    reach the top.  One removal costs O(omega(n)).
    """

    def __init__(self, dec: Decomposition, theta: Fraction, masses: dict | None = None):
        self.theta = theta.numerator, theta.denominator
        self.classes: dict[int, set[int]] = {}
        self.ppowers: dict[int, list[int]] = {n: [] for n in dec.base.elements}
        # the masses of another index over dec, before any removal, are copied, not summed again
        summed = masses is None
        self.masses = {} if summed else dict(masses)
        for q, members in dec.parts.items():
            elems = members.elements
            self.classes[q] = set(elems)
            for n in elems:
                self.ppowers[n].append(q)
            if summed:
                # a one-member class weighs q/n as it stands
                self.masses[q] = (q, elems[0]) if len(elems) == 1 else pair_sum([(q, n) for n in elems])
        self.light = [q for q, m in self.masses.items() if self._is_light(m)]
        heapq.heapify(self.light)

    def _is_light(self, mass: tuple[int, int]) -> bool:
        (num, den), (tn, td) = mass, self.theta
        return num * td < tn * den

    def remove(self, n: int) -> None:
        for q in self.ppowers.pop(n):
            cls = self.classes[q]
            cls.remove(n)
            if not cls:
                del self.classes[q], self.masses[q]
                continue
            old = self.masses[q]
            self.masses[q] = new = _gcd_add(old, (-q, n))
            if self._is_light(new) and not self._is_light(old):
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
    index = _ClassIndex(build_decomposition(A, t), theta)
    removed_qs, removed_elements = index.prune()
    # ppowers keeps A's ascending order as elements leave it
    final = IntSet._sorted(tuple(index.ppowers))
    r_initial = recip_sum(A)
    return PruneTrace(
        removed_qs=tuple(removed_qs),
        removed_elements=tuple(removed_elements),
        final=final,
        r_initial=r_initial,
        r_final=recip_sum(final) if removed_elements else r_initial,
    )


def prune_to_window(A: SetLike, alpha, theta, M: int, t: FactorTable) -> PruneTrace:
    """Trim single elements until the reciprocal sum lands in [alpha - 1/M, alpha).

    Each iteration pre-prunes the working set at threshold 2*theta and
    removes its smallest surviving element; since every element is at
    least M, one removal lowers the sum by at most 1/M, which certifies
    the window on normal exit.  With theta > 0 every prime power of A
    must satisfy q <= M * theta, and the per-class floor
    mass(D; q) >= theta is re-checked after every removal.

    The pre-prune of W is its largest subset core(W) whose classes all
    weigh at least 2*theta, and core(W - {x}) = core(core(W) - {x}), so
    one index over the core is carried from step to step next to one over
    the working set, and neither is rebuilt.  theta = 0 builds neither:
    no mass is below 0, so the core is the whole working set, the floor
    always holds, and the trimmer removes elements in ascending order.
    alpha must be positive: no reciprocal sum lies below alpha <= 0.
    """
    A = as_intset(A)
    alpha = Fraction(alpha)
    theta = Fraction(theta)
    if theta < 0:
        raise DomainError("theta must be >= 0")
    if M < 1:
        raise DomainError("M must be >= 1")
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {_brief(alpha)}")
    r_initial = recip_sum(A)
    if r_initial < alpha:
        raise DomainError(f"need recip_sum(A) >= alpha, got {_brief(r_initial)} < {_brief(alpha)}")
    for n in A.elements:
        if not M <= n <= t.bound:
            raise DomainError(f"element {n} outside [{M}, {t.bound}]")
    if theta:
        dec = build_decomposition(A, t)
        working = _ClassIndex(dec, theta)
        for q in working.classes:
            if q > M * theta:
                raise DomainError(f"prime power {q} exceeds M*theta = {M * theta}")
        core = _ClassIndex(dec, 2 * theta, working.masses)
        core.prune()
    elif A and A.elements[0] == 1:
        raise DomainError("element 1 has no prime-power divisors")
    r = r_initial.numerator, r_initial.denominator
    order = iter(A.elements)
    removed: list[int] = []
    while r[0] * alpha.denominator >= alpha.numerator * r[1]:  # r >= alpha
        x = next((n for n in order if not theta or n in core.ppowers), None)
        if x is None:
            raise InfeasibleError(
                "pre-prune at 2*theta emptied the set while the sum is still >= alpha"
            )
        r = _gcd_add(r, (-1, x))
        removed.append(x)
        if theta:
            working.remove(x)
            core.remove(x)
            core.prune()
            if working.smallest_light() is not None:
                bad = sorted(q for q in working.light if q in working.classes)
                raise InfeasibleError(
                    f"per-class floor theta lost at prime powers {bad} after removing {x}"
                )
    return PruneTrace(
        removed_qs=(),
        removed_elements=tuple(removed),
        # at theta = 0 the removals are a prefix of A
        final=IntSet._sorted(tuple(working.ppowers) if theta else A.elements[len(removed):]),
        r_initial=r_initial,
        r_final=Fraction(*r),
    )


def _brief(x: Fraction) -> str:
    """x in full up to 256 bits, and past that the bit lengths of its numerator and denominator."""
    num, den = x.numerator, x.denominator
    if max(abs(num), den).bit_length() <= 256:
        return str(x)
    return f"a {num.bit_length()}-bit/{den.bit_length()}-bit fraction"
