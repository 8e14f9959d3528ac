"""Exact rational arithmetic over finite sets of positive integers.

The two workhorses are ``recip_sum`` (the reciprocal sum of a set, computed
exactly) and ``lcm_set``.  All rational values are ``fractions.Fraction``
instances, which are always stored reduced with a positive denominator.

Sums go through one kernel, ``pair_sum``, a ``balanced_merge`` that
divides out the gcd of the two denominators at each step: reciprocal sums
and the class masses of ``decomposition`` and ``pruning`` alike.
``fraction_sum`` reduces its pair to a ``Fraction``; ``pruning`` keeps its
masses and running sums as unreduced pairs.  Only the
Mertens sums of ``filters``, which are in lowest terms by construction,
keep their own gcd-free merge, and ``_reduced_fraction`` builds their
``Fraction`` without the final gcd.
"""
from __future__ import annotations

import json
import math
import numbers
import operator
import re
from bisect import bisect_left
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator, TypeVar, Union

from .errors import DomainError

SetLike = Union["IntSet", Iterable[int]]
_T = TypeVar("_T")
_RATIONAL = re.compile(r"([-+]?\d+)(?:/(\d+))?")


class IntSet:
    """Immutable finite set of positive integers, stored sorted ascending.

    Duplicates are merged; zero and negative entries are rejected (a
    reciprocal 1/0 is undefined, and the element 1 is allowed), and so are
    booleans, which ``operator.index`` would read as 0 and 1.
    """

    __slots__ = ("elements",)

    def __init__(self, items: Iterable[int] = ()):
        items = tuple(items)
        if bool in map(type, items):
            raise DomainError("set elements must be integers, not booleans")
        elems = sorted({operator.index(x) for x in items})
        if elems and elems[0] < 1:
            raise DomainError(f"set elements must be positive, got {elems[0]}")
        object.__setattr__(self, "elements", tuple(elems))

    @classmethod
    def _sorted(cls, elems: tuple[int, ...]) -> "IntSet":
        """The set of elems, which the caller proves are distinct positive ints, ascending."""
        out = object.__new__(cls)
        object.__setattr__(out, "elements", elems)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("IntSet is immutable")

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, n) -> bool:
        try:
            i = bisect_left(self.elements, n)
        except TypeError:  # a probe that does not compare with ints is no member
            return False
        return i < len(self.elements) and self.elements[i] == n

    def __eq__(self, other) -> bool:
        if isinstance(other, IntSet):
            return self.elements == other.elements
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.elements)

    def __repr__(self) -> str:
        return f"IntSet({list(self.elements)!r})"

    def __bool__(self) -> bool:
        return bool(self.elements)

    def union(self, other: SetLike) -> "IntSet":
        return IntSet(self.elements + tuple(other))

    # -- serialization: newline-delimited decimal text and JSON array --

    def to_text(self) -> str:
        return "".join(f"{n}\n" for n in self.elements)

    def to_json(self) -> str:
        return json.dumps(list(self.elements))

    @classmethod
    def from_text(cls, text: str) -> "IntSet":
        items = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                items.append(int(line))
        return cls(items)

    @classmethod
    def from_json(cls, text: str) -> "IntSet":
        data = json.loads(text)
        # a JSON true or false would pass as the integer 1 or 0
        if not isinstance(data, list) or any(type(x) is not int for x in data):
            raise DomainError("expected a JSON array of integers")
        return cls(data)

    @classmethod
    def parse(cls, text: str) -> "IntSet":
        """Parse either serialized form, sniffing by the leading character."""
        if text.lstrip().startswith("["):
            return cls.from_json(text)
        return cls.from_text(text)


def as_intset(A: SetLike) -> IntSet:
    return A if isinstance(A, IntSet) else IntSet(A)


def balanced_merge(terms: list[_T], merge: Callable[[_T, _T], _T], empty: _T) -> _T:
    """Fold terms with an associative merge as a balanced binary tree.

    Neighbours are merged level by level, so the operands of each merge
    stay similar in size: big-integer products and sums then cost far less
    than a left-to-right fold, whose accumulator grows at every step.
    """
    if not terms:
        return empty
    while len(terms) > 1:
        merged = [merge(terms[i], terms[i + 1]) for i in range(0, len(terms) - 1, 2)]
        if len(terms) % 2:
            merged.append(terms[-1])
        terms = merged
    return terms[0]


def pair_sum(pairs: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of num/den pairs (den > 0) via balanced pairwise merging, unreduced.

    Each merge divides out g = gcd(b, d):
    a/b + c/d = (a*(d/g) + c*(b/g)) / ((b/g)*d), so the denominator of the
    sum is the lcm of the denominators, not their product.
    """
    return balanced_merge(list(pairs), _gcd_add, (0, 1))


def fraction_sum(pairs: Iterable[tuple[int, int]]) -> Fraction:
    """Exact sum of num/den pairs, reduced once at the end on lcm-sized integers.

    The result is identical to naive left-to-right Fraction accumulation.
    """
    return Fraction(*pair_sum(pairs))


def _gcd_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    g = math.gcd(b, d)
    if g == 1:
        return a * d + c * b, b * d
    b //= g
    return a * (d // g) + c * b, b * d


class _Reduced:
    """A numerator/denominator pair already in lowest terms.

    ``Fraction(x)`` copies the two attributes of any ``numbers.Rational``
    as they are, with no gcd; ``Fraction(num, den, _normalize=False)``
    would do the same but is gone from Python 3.12.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator = numerator
        self.denominator = denominator


numbers.Rational.register(_Reduced)


def _reduced_fraction(num: int, den: int) -> Fraction:
    """The Fraction num/den, for den > 0 and gcd(num, den) == 1 proved by the caller."""
    return Fraction(_Reduced(num, den))


def recip_sum(A: SetLike) -> Fraction:
    """Return the exact reciprocal sum of a set (0 for the empty set)."""
    A = as_intset(A)
    return fraction_sum((1, n) for n in A)


def lcm_set(A: SetLike) -> int:
    """Least common multiple of all elements; 1 for the empty set."""
    A = as_intset(A)
    return math.lcm(*A.elements)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or plain integer decimal text into an exact rational.

    Integer digits go through ``decimal``, as in ``format_rational``, so
    what that writes reads back at any length; other forms ("0.25",
    "1e-3") go through ``Fraction``.
    """
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if m is None:
        return Fraction(text)
    den = int(Decimal(m[2] or 1))
    if den == 0:
        raise DomainError(f"zero denominator in rational {text!r}")
    return Fraction(int(Decimal(m[1])), den)


def format_rational(x: Fraction) -> str:
    """Serialize a rational as "num/den" (denominator always present).

    The digits go through ``decimal``, which, unlike ``str(int)``, has no
    4300-digit limit; the text is the same as ``str`` gives below it.
    """
    x = Fraction(x)
    return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"
