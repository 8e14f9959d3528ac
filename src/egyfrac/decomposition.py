"""Per-prime-power decomposition of integer sets.

For a set A and prime power q, the class of q is the subset of elements n
with q | n and gcd(q, n/q) = 1, i.e. those n in which q occurs as an exact
prime-power divisor.  The mass of the class is the sum of q/n over it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DomainError
from .rational import IntSet, SetLike, as_intset, fraction_sum
from .sieve import FactorTable, _prime_powers_each, exact_prime_powers, is_prime_power


def subset_aq(A: SetLike, q: int, t: FactorTable) -> IntSet:
    """The class of q in A: {n in A : q | n and gcd(q, n/q) = 1}."""
    A = as_intset(A)
    if not is_prime_power(q):
        raise DomainError(f"q={q} is not a prime power")
    for n in A:
        t._check(n)
    return IntSet(n for n in A if n % q == 0 and math.gcd(q, n // q) == 1)


def ppowers_in_set(A: SetLike, t: FactorTable) -> IntSet:
    """All prime powers occurring exactly in some element of A."""
    A = as_intset(A)
    out: set[int] = set()
    for n in A:
        if n == 1:
            raise DomainError("element 1 has no prime-power divisors")
        out.update(exact_prime_powers(n, t))
    return IntSet(out)


def rec_sum_q(A: SetLike, q: int, t: FactorTable) -> Fraction:
    """Mass of the class of q: sum of q/n over the class (0 if empty)."""
    members = subset_aq(A, q, t)
    return fraction_sum((q, n) for n in members)


def qsum_check(A: SetLike, t: FactorTable) -> Fraction:
    """Sum of 1/q over every prime power occurring exactly in A.

    Reported for comparison against loglog-scale lower bounds by callers;
    nothing is asserted here.
    """
    qs = ppowers_in_set(A, t)
    return fraction_sum((1, q) for q in qs)


@dataclass(frozen=True)
class Decomposition:
    """A set together with its full prime-power class structure."""

    base: IntSet
    qset: IntSet
    parts: Mapping[int, IntSet]

    def to_json_dict(self) -> dict:
        return {
            "base": list(self.base),
            "qset": list(self.qset),
            "parts": {str(q): list(members) for q, members in self.parts.items()},
        }


def build_decomposition(A: SetLike, t: FactorTable) -> Decomposition:
    """Group the elements of A by their exact prime-power divisors."""
    A = as_intset(A)
    elems = A.elements
    if elems and elems[0] == 1:
        raise DomainError("element 1 has no prime-power divisors")
    classes: dict[int, list[int]] = {}
    # ascending q within each n fixes the order of parts, and so of the JSON
    for n, qs in zip(elems, _prime_powers_each(elems, t)):
        for q in qs:
            classes.setdefault(q, []).append(n)
    # each class lists its members once each, in A's ascending order
    parts = {q: IntSet._sorted(tuple(members)) for q, members in classes.items()}
    return Decomposition(base=A, qset=IntSet._sorted(tuple(sorted(parts))), parts=parts)
