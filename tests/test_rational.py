import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import egyfrac.rational
from egyfrac import (
    DomainError,
    IntSet,
    build_decomposition,
    build_table,
    format_rational,
    fraction_sum,
    parse_rational,
    pomerance_set,
    prune_ppower,
    prune_to_window,
    recip_sum,
    sieve_survivors,
)
from egyfrac.rational import _split_recip_sum
from helpers import lcm_recip_sum

small_sets = st.lists(st.integers(min_value=1, max_value=500), max_size=12)


def test_recip_sum_examples():
    assert recip_sum([2, 3, 6]) == Fraction(1)
    assert recip_sum([]) == Fraction(0)
    # oracle: naive left-to-right Fraction accumulation
    oracle = sum((Fraction(1, n) for n in [2, 3, 4, 5]), Fraction(0))
    assert oracle == Fraction(77, 60)
    assert recip_sum([2, 3, 4, 5]) == oracle


@given(small_sets, small_sets)
def test_disjoint_additivity(xs, ys):
    a = IntSet(xs)
    b = IntSet(y for y in ys if y not in a)
    assert recip_sum(a.union(b)) == recip_sum(a) + recip_sum(b)


@given(small_sets)
def test_recip_times_lcm_is_integer(xs):
    a = IntSet(xs)
    assert (recip_sum(a) * math.lcm(*a)).denominator == 1


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


@pytest.mark.parametrize("probe", ["a", None, 2.5j, (2,), [3]])
def test_intset_contains_a_non_integer_probe_is_false(probe):
    # a container answers False for a probe it cannot hold, as set and tuple do
    assert probe not in IntSet([1, 2, 3])
    assert probe not in IntSet([])


def test_library_built_sets_equal_validated_sets(small_table):
    # the library builds these without re-validating; each must be the set IntSet would build
    dec = build_decomposition(range(2, 400), small_table)
    window = prune_to_window(range(1000, 1200), Fraction(1, 10), 0, 1000, small_table)
    built = [
        sieve_survivors(100, 5000, 3, 100, small_table),
        dec.qset,
        *dec.parts.values(),
        prune_ppower(range(2, 400), Fraction(1, 2), small_table).final,
        window.final,
    ]
    assert window.removed_elements and dec.parts
    for s in built:
        assert s.elements == IntSet(list(s)).elements
        assert all(type(n) is int for n in s)


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


def test_intset_parses_text_and_json():
    # the two forms a set file takes: one integer a line, or a JSON array
    a = IntSet([5, 2, 11])
    assert IntSet.from_text("2\n5\n11\n") == a
    assert IntSet.from_text("  2 \n\n5\n11\n") == a
    assert IntSet.from_json("[2, 5, 11]") == a
    assert IntSet.parse("[2, 5, 11]") == a
    assert IntSet.parse("2\n5\n11\n") == a


def test_rational_serialization():
    assert format_rational(Fraction(1)) == "1/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(77, 60)) == "77/60"
    big = Fraction(2**14000 + 1, 3**9000)  # 4215 and 4295 digits, just below str(int)'s limit
    assert format_rational(big) == f"{big.numerator}/{big.denominator}"
    assert parse_rational("77/60") == Fraction(77, 60)
    assert parse_rational("3") == Fraction(3)
    assert parse_rational(format_rational(Fraction(-5, 8))) == Fraction(-5, 8)


# -- the large-prime split of recip_sum --


def _split_sets():
    rng = random.Random(18)
    B = 100  # isqrt(max) for the first three sets; 101 = B + 1 is prime
    sample = rng.sample(range(2, B * B), 400)
    return {
        "square max": sample + [B * B],
        "max (B+1)^2 - 1": sample + [101, 101 * 100, (B + 1) ** 2 - 1],
        "p = B+1 alone": [101, 2, 3, 4, B * B + 1],
        # B = 127 is prime: 127^2, 127 * 128 and 128^2 - 1 = 3 * 43 * 127 are smooth, and
        # 128 does not divide lcm(1..127)
        "prime B, max (B+1)^2 - 1": sample + [127, 127 * 127, 127 * 128, 131, 128 * 128 - 1],
        # 1/64 + 1/4032 = 1/63, with B = 63: the smooth part cancels 2^6, past lcm(1..63)'s 2^5
        "smooth prime power above L": [64, 4001, 4032],
        "contains 1": [1] + sample + [10_007],
        "primes only": [2, 3, 5, 7, 11, 13, 17, 19, 23],
        "one element": [9973],
        "range": list(range(2, 2001)),
        "dense random": sorted(rng.sample(range(2, 50_000), 3000)),
    }


@pytest.mark.parametrize("name", list(_split_sets()))
def test_split_recip_sum_matches_lcm_reference(name):
    A = sorted(set(_split_sets()[name]))
    got = _split_recip_sum(tuple(A))
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == lcm_recip_sum(A)


def test_split_divides_out_a_prime_that_divides_its_c_p():
    # B = 6 and L = lcm(1..6) = 60; the cofactors of 7 are {1, 6}, those of 11 are {1, 2, 3}:
    # c_7 = 60 + 10 = 70 and c_11 = 60 + 30 + 20 = 110, so 1/7 + 1/42 = 1/6 and
    # 1/11 + 1/22 + 1/33 = 1/6, and neither prime is left in the denominator
    A = (5, 7, 11, 22, 33, 42, 45)
    B, L = math.isqrt(max(A)), math.lcm(*range(1, 7))
    assert B == 6 and (L + L // 6) % 7 == 0 and (L + L // 2 + L // 3) % 11 == 0
    got = _split_recip_sum(A)
    assert (got.numerator, got.denominator) == lcm_recip_sum(A)
    assert got.denominator % 7 and got.denominator % 11
    # the same primes among many more elements, past the gate
    rng = random.Random(7)
    A = sorted({101, 10_100} | set(rng.sample(range(2, 10_200), 3000)))
    assert math.isqrt(A[-1]) == 100
    got = recip_sum(A)
    assert (got.numerator, got.denominator) == lcm_recip_sum(A)


def test_recip_sum_takes_the_split_only_past_the_gate(monkeypatch):
    rational = egyfrac.rational
    calls = []
    split = rational._split_recip_sum

    def spy(elems):
        calls.append(len(elems))
        return split(elems)

    monkeypatch.setattr(rational, "_split_recip_sum", spy)
    rng = random.Random(3)
    n = rational._SPLIT_MIN
    span = rational._SPLIT_SPAN
    cases = [
        (sorted(rng.sample(range(2, span * (n - 1) + 1), n - 1)), False),  # one element short
        (sorted(rng.sample(range(2, span * n + 1), n)), True),
        (list(range(2, n + 2)), True),
        (sorted(rng.sample(range(2, 10 * span * n), n)), False),  # too sparse
    ]
    for A, split_taken in cases:
        calls.clear()
        got = recip_sum(A)
        assert calls == ([len(A)] if split_taken else [])
        assert (got.numerator, got.denominator) == lcm_recip_sum(A)


def test_recip_sum_on_the_pomerance_set_matches_fraction_sum():
    members = pomerance_set(100_000, 1.0, build_table(100_000)).members
    assert len(members) >= egyfrac.rational._SPLIT_MIN
    got = recip_sum(members)
    want = fraction_sum((1, n) for n in members)
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=5000), min_size=1, max_size=80))
def test_split_recip_sum_matches_lcm_reference_hypothesis(xs):
    A = sorted(set(xs))
    got = _split_recip_sum(tuple(A))
    assert (got.numerator, got.denominator) == lcm_recip_sum(A)
