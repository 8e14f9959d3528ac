"""Exact rational arithmetic over finite sets of positive integers.

The workhorse is ``recip_sum``, the reciprocal sum of a set, computed
exactly.  All rational values are ``fractions.Fraction`` instances, which
are always stored reduced with a positive denominator.

Sums go through one kernel, ``pair_sum``, a ``balanced_merge`` that
divides out the gcd of the two denominators at each step: small
reciprocal sums and the class masses of ``decomposition`` and ``pruning``
alike.  ``fraction_sum`` reduces its pair to a ``Fraction``; ``pruning``
keeps its masses and running sums as unreduced pairs.  Terms over
pairwise coprime denominators merge with no gcd at all, through
``_coprime_sum``: the Mertens sums of ``filters``, and the large-prime
part of a big reciprocal sum, which ``recip_sum`` splits off at
isqrt(max(A)) so that no gcd is taken on lcm-sized integers.  The Mertens
sums are in lowest terms by construction, and the split sum after one gcd
against a small number, so ``_reduced_fraction`` builds both ``Fraction``
values without the final gcd.
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

import numpy as np

from .errors import DomainError
from .sieve import build_table

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

    # -- parsing: newline-delimited decimal text and JSON array --

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


def positive_k(k) -> int:
    """k as an int; DomainError unless k is an integer >= 1.  Booleans are refused,
    as IntSet refuses them for elements."""
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1:
        raise DomainError("k must be a positive integer")
    return operator.index(k)


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


def _coprime_sum(pairs: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of num/den pairs whose denominators are pairwise coprime.

    No gcd is taken: the denominator of the sum is the product of the
    denominators.
    """
    return balanced_merge(pairs, _coprime_add, (0, 1))


def _coprime_add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (a, b), (c, d) = x, y
    return a * d + c * b, b * d


# recip_sum splits sets of at least _SPLIT_MIN elements whose max is at most _SPLIT_SPAN
# times their count, and at most _SPLIT_TOP, which keeps the split's uint16 table within 32 MB
_SPLIT_MIN = 2048
_SPLIT_SPAN = 32
_SPLIT_TOP = 1 << 24


def recip_sum(A: SetLike) -> Fraction:
    """Return the exact reciprocal sum of a set (0 for the empty set).

    Sets of 2048 or more elements whose max is at most 32 times their
    count go through ``_split_recip_sum``, which takes no gcd on lcm-sized
    integers; the rest through ``fraction_sum``.  The split pays a sieve up
    to max(A), so it loses on small or sparse sets.  (Measured on a 2-vCPU
    Xeon, best of 7 to 21, mean of 3 random sets: at 1,024 elements the
    split took 1.15 to 1.25 times as long for max 2 to 48 times the count;
    at 2,048, 0.85 to 0.95 times for 2 to 32 and 1.05 for 48; at 4,096,
    0.96 for 64 and 1.6 for 256.  On the Pomerance sets, of density 0.25
    to 0.4, the two are even near 1,000 members: 0.99 ms through
    ``fraction_sum`` and 0.94 ms split at 948, 224 and 57 ms at 27,986.)
    """
    A = as_intset(A)
    elems = A.elements
    if len(elems) < _SPLIT_MIN or elems[-1] > min(_SPLIT_SPAN * len(elems), _SPLIT_TOP):
        return fraction_sum((1, n) for n in elems)
    return _split_recip_sum(elems)


def _split_recip_sum(elems: tuple[int, ...]) -> Fraction:
    """The reciprocal sum of distinct positive ints, ascending, split at B = isqrt(max).

    An element n whose largest prime p exceeds B is p*m with m <= B, since
    n < (B + 1)^2; with L = lcm(1..B), the terms of each such p add up to
    c_p / (L*p), c_p = sum of L/m over p's cofactors m.  Distinct primes are
    coprime, so ``_coprime_sum`` merges the pairs (c_p, p) into N / P with
    P the product of the primes, and p divides N iff p divides c_p: those
    primes are divided out of N and P.  The B-smooth rest sums by
    ``pair_sum`` to a/b, and one ``_gcd_add`` joins the two parts over
    lcm(b, L) * P.  No prime of P divides the joined numerator, so the one
    reducing gcd is taken against lcm(b, L), which has no prime above B.
    """
    top = elems[-1]
    root = math.isqrt(top)
    values = np.array(elems, dtype=np.int64)
    largest = build_table(max(top, 2)).largest_primes(values)
    big = largest > root
    ps = largest[big]
    L = math.lcm(*range(1, root + 1))
    # one L/m object for each m, shared by every c_p with a single cofactor
    Lm = [0] + [L // m for m in range(1, root + 1)]
    c: dict[int, int] = {}
    for p, m in zip(ps.tolist(), (values[big] // ps).tolist()):
        c[p] = c[p] + Lm[m] if p in c else Lm[m]
    cancel = [p for p, cp in c.items() if cp % p == 0]
    num, den = _coprime_sum([(cp, p) for p, cp in c.items()])
    if cancel:
        q = math.prod(cancel)
        num, den = num // q, den // q
    a, b = pair_sum((1, n) for n in values[~big].tolist())
    num, den = _gcd_add((a, b), (num, L * den))
    g = math.gcd(num, math.lcm(b, L))
    return _reduced_fraction(num // g, den // g)


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
