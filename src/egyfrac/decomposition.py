"""Per-prime-power decomposition of integer sets.

For a set A and prime power q, the class of q is the subset of elements n
with q | n and gcd(q, n/q) = 1, i.e. those n in which q occurs as an exact
prime-power divisor.  The mass of the class is the sum of q/n over it.

``build_decomposition`` is the one place a set is grouped into its classes:
it reads each element's exact prime powers off the sieve table in one pass,
and pruning weighs the classes of the ``Decomposition`` it returns.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import DomainError
from .rational import IntSet, SetLike, as_intset
from .sieve import FactorTable, _prime_powers_each


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
