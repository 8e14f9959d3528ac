import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from egyfrac import DomainError, IntSet, format_rational, fraction_sum, lcm_set, parse_rational, recip_sum

small_sets = st.lists(st.integers(min_value=1, max_value=500), max_size=12)


def test_recip_sum_examples():
    assert recip_sum([2, 3, 6]) == Fraction(1)
    assert recip_sum([]) == Fraction(0)
    # oracle: naive left-to-right Fraction accumulation
    oracle = sum((Fraction(1, n) for n in [2, 3, 4, 5]), Fraction(0))
    assert oracle == Fraction(77, 60)
    assert recip_sum([2, 3, 4, 5]) == oracle


def test_lcm_examples():
    assert lcm_set([2, 3, 6]) == 6
    assert lcm_set([]) == 1
    # oracle: pairwise lcm folding
    oracle = 1
    for n in [4, 6, 10]:
        oracle = math.lcm(oracle, n)
    assert oracle == 60
    assert lcm_set([4, 6, 10]) == oracle


@given(small_sets, small_sets)
def test_disjoint_additivity(xs, ys):
    a = IntSet(xs)
    b = IntSet(y for y in ys if y not in a)
    assert recip_sum(a.union(b)) == recip_sum(a) + recip_sum(b)


@given(small_sets)
def test_recip_times_lcm_is_integer(xs):
    a = IntSet(xs)
    assert (recip_sum(a) * lcm_set(a)).denominator == 1


@given(small_sets)
def test_reduction_idempotent(xs):
    r = recip_sum(IntSet(xs))
    assert r.denominator > 0
    assert math.gcd(r.numerator, r.denominator) == 1
    assert Fraction(r.numerator, r.denominator) == r


# denominators drawn as products of small primes, so that pairs share
# factors often, plus large primes, so that coprime pairs occur too
_dens = st.one_of(
    st.builds(math.prod, st.lists(st.sampled_from([2, 3, 5, 7]), max_size=6)),
    st.sampled_from([10007, 65537, 999983]),
    st.integers(min_value=1, max_value=10**6),
)


@given(st.lists(st.tuples(st.integers(min_value=-50, max_value=50), _dens), max_size=40))
def test_fraction_sum_matches_left_to_right(pairs):
    oracle = Fraction(0)
    for n, d in pairs:
        oracle += Fraction(n, d)
    got = fraction_sum(pairs)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (oracle.numerator, oracle.denominator)


def test_intset_normalization():
    a = IntSet([6, 2, 3, 2, 6])
    assert a.elements == (2, 3, 6)
    assert 3 in a and 5 not in a
    assert len(a) == 3
    assert IntSet([1]).elements == (1,)


def test_intset_rejects_nonpositive():
    with pytest.raises(DomainError):
        IntSet([0, 2])
    with pytest.raises(DomainError):
        IntSet([-3])


def test_intset_rejects_floats():
    with pytest.raises(TypeError):
        IntSet([2.5])


def test_intset_rejects_booleans():
    # operator.index reads True as 1
    with pytest.raises(DomainError):
        IntSet([True, 2])
    with pytest.raises(DomainError):
        IntSet([False])
    assert IntSet(np.array([3, 2])) == IntSet([2, 3])


@pytest.mark.parametrize("text", ["[true, 2]", "[false]", "[2.5, 3]", '["2"]', "[null]", '{"a": 2}'])
def test_intset_from_json_rejects_non_integers(text):
    # a JSON true must not pass as the integer 1, nor 2.5 escape as a bare TypeError
    with pytest.raises(DomainError):
        IntSet.from_json(text)


def test_intset_immutable():
    a = IntSet([2, 3])
    with pytest.raises(AttributeError):
        a.elements = (1,)


def test_intset_serialization_roundtrip():
    a = IntSet([5, 2, 11])
    assert a.to_text() == "2\n5\n11\n"
    assert IntSet.from_text(a.to_text()) == a
    assert IntSet.from_text("  2 \n\n5\n11\n") == a
    assert a.to_json() == "[2, 5, 11]"
    assert IntSet.from_json(a.to_json()) == a
    assert IntSet.parse(a.to_json()) == a
    assert IntSet.parse(a.to_text()) == a


def test_rational_serialization():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(77, 60)) == "77/60"
    big = Fraction(2**14000 + 1, 3**9000)  # 4215 and 4295 digits, just below str(int)'s limit
    assert format_rational(big) == f"{big.numerator}/{big.denominator}"
    assert parse_rational("77/60") == Fraction(77, 60)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(format_rational(Fraction(-5, 8))) == Fraction(-5, 8)
