import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import egyfrac.pruning
from egyfrac import (
    DomainError,
    InfeasibleError,
    IntSet,
    build_table,
    prune_ppower,
    prune_to_window,
    recip_sum,
)
from helpers import fraction_masses, trial_prime_powers


def test_prune_ppower_examples(small_table):
    tr = prune_ppower([2, 3], Fraction(2, 5), small_table)
    assert tr.final == IntSet([2, 3]) and tr.removed_qs == ()
    # both classes of 100 (q=4 at mass 1/25, q=25 at mass 1/4) fail at 3/10;
    # the smallest failing q is removed first, emptying the set
    tr = prune_ppower([100], Fraction(3, 10), small_table)
    assert tr.final == IntSet([])
    assert tr.removed_qs == (4,)
    assert tr.removed_elements == (100,)
    assert tr.r_initial == Fraction(1, 100) and tr.r_final == 0
    tr = prune_ppower([4, 8], Fraction(1, 2), small_table)
    assert tr.final == IntSet([4, 8])


def test_prune_ppower_postconditions(small_table):
    rng = random.Random(51)
    for _ in range(60):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 50)))
        for theta in (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)):
            tr = prune_ppower(A, theta, small_table)
            assert all(mass >= theta for mass in fraction_masses(tr.final).values())
            if theta > 0:
                qsum = sum((Fraction(1, q) for q in fraction_masses(A)), Fraction(0))
                assert tr.r_final > tr.r_initial - theta * qsum
            else:
                assert tr.r_final == tr.r_initial
            assert len(set(tr.removed_qs)) == len(tr.removed_qs)


def test_prune_ppower_idempotent(small_table):
    rng = random.Random(52)
    for _ in range(40):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 40)))
        theta = Fraction(rng.randint(0, 4), 4)
        first = prune_ppower(A, theta, small_table)
        second = prune_ppower(first.final, theta, small_table)
        assert second.final == first.final
        assert second.removed_qs == ()


def test_prune_to_window_examples(small_table):
    tr = prune_to_window([4, 6], Fraction(1, 3), 0, 4, small_table)
    assert tr.final == IntSet([6])
    assert tr.r_final == Fraction(1, 6)
    assert Fraction(1, 3) - Fraction(1, 4) <= tr.r_final < Fraction(1, 3)
    assert tr.removed_elements == (4,)
    with pytest.raises(DomainError):
        prune_to_window([2, 3, 6], 2, 0, 2, small_table)
    tr = prune_to_window([4, 5, 6, 20], Fraction(1, 2), 0, 4, small_table)
    assert tr.r_initial == Fraction(2, 3)
    assert tr.final == IntSet([5, 6, 20])
    assert tr.r_final == Fraction(5, 12)


def test_prune_to_window_preconditions(small_table):
    with pytest.raises(DomainError):
        prune_to_window([3, 6], Fraction(1, 3), 0, 4, small_table)  # 3 < M
    # theta > 0 enforces the prime-power cap q <= M*theta
    with pytest.raises(DomainError):
        prune_to_window([100], Fraction(1, 100), Fraction(1, 100), 100, small_table)


def test_pruning_rejects_element_one(small_table):
    # 1 has no prime-power divisors, so it belongs to no class
    with pytest.raises(DomainError):
        prune_ppower([1, 2], 0, small_table)
    with pytest.raises(DomainError):
        prune_to_window([1, 2], 1, 0, 1, small_table)


def test_prune_to_window_names_the_size_of_a_huge_sum():
    # the sum over 1000..19999 has a denominator of over 4,300 digits, past what
    # int-to-str conversion allows: the refusal gives bit lengths, not the number
    t = build_table(20_000)
    with pytest.raises(DomainError, match=r"^need recip_sum\(A\) >= alpha, got a \d+-bit/\d+-bit fraction < 10$"):
        prune_to_window(range(1000, 20000), 10, 0, 1000, t)


def test_prune_to_window_builds_no_class_index_at_theta_zero(small_table, monkeypatch):
    # no class weighs less than 0, so at theta = 0 the trimmer needs no decomposition and no index
    def index_built(*args, **kwargs):
        raise AssertionError("a class index was built at theta = 0")

    monkeypatch.setattr(egyfrac.pruning, "build_decomposition", index_built)
    monkeypatch.setattr(egyfrac.pruning, "_ClassIndex", index_built)
    tr = prune_to_window([4, 5, 6, 20], Fraction(1, 2), 0, 4, small_table)
    assert tr.removed_elements == (4,) and tr.final == IntSet([5, 6, 20])
    # the element-1 refusal and the emptied-set error need no decomposition either
    with pytest.raises(DomainError, match="^element 1 has no prime-power divisors$"):
        prune_to_window([1, 2], 1, 0, 1, small_table)
    with pytest.raises(InfeasibleError, match="emptied the set"):
        prune_to_window([4, 6], 0, 0, 4, small_table)


def test_prune_to_window_infeasible(small_table):
    # q=4 has mass 1/25 < 2*theta, the pre-prune removes everything
    with pytest.raises(InfeasibleError):
        prune_to_window([100], Fraction(1, 100), Fraction(1, 4), 100, small_table)


def test_prune_to_window_randomized(small_table):
    rng = random.Random(53)
    for _ in range(60):
        A = IntSet(rng.sample(range(10, 10_000), rng.randint(2, 40)))
        r = recip_sum(A)
        alpha = r * Fraction(rng.randint(1, 3), 4)
        if alpha == 0:
            continue
        M = min(A)
        tr = prune_to_window(A, alpha, 0, M, small_table)
        assert alpha - Fraction(1, M) <= tr.r_final < alpha
        assert tr.removed_qs == ()
        # removals happen one element at a time, each at least M
        assert all(x >= M for x in tr.removed_elements)
        assert tr.final.union(tr.removed_elements) == A


def _prune_ppower_reference(A, theta):
    """Delete the class of the smallest light prime power, with every mass
    recomputed as a Fraction after each deletion."""
    working = sorted(A)
    removed_qs, removed = [], []
    while light := [q for q, m in fraction_masses(working).items() if m < theta]:
        q = min(light)
        victims = [n for n in working if n % q == 0 and math.gcd(q, n // q) == 1]
        removed_qs.append(q)
        removed += victims
        working = [n for n in working if n not in victims]
    return tuple(removed_qs), tuple(removed), IntSet(working), sum((Fraction(1, n) for n in working), Fraction(0))


def _prune_to_window_reference(A, alpha, theta, M):
    """The window trimmer re-derived from scratch at every step: the
    pre-prune reruns the prune_ppower reference at 2*theta on the whole
    working set, and the floor recomputes every class mass."""
    if theta > 0 and any(q > M * theta for q in fraction_masses(A)):
        raise DomainError("prime power exceeds M*theta")
    working = sorted(A)
    r = sum((Fraction(1, n) for n in working), Fraction(0))
    removed = []
    while r >= alpha:
        survivors = _prune_ppower_reference(working, 2 * theta)[2]
        if not survivors:
            raise InfeasibleError("pre-prune emptied the set")
        x = survivors.elements[0]
        working.remove(x)
        r -= Fraction(1, x)
        removed.append(x)
        if any(m < theta for m in fraction_masses(working).values()):
            raise InfeasibleError("floor lost")
    return tuple(removed), IntSet(working), r


def _outcome(f, *args):
    try:
        tr = f(*args)
    except InfeasibleError:
        return "infeasible"
    except DomainError:
        return "domain"
    return tr if isinstance(tr, tuple) else (tr.removed_elements, tr.final, tr.r_final)


def test_prune_to_window_theta_matches_reference(small_table):
    # M*theta at least every prime power of A, as the precondition asks;
    # windows just below the full sum leave a run that can succeed
    rng = random.Random(55)
    outcomes = []
    for _ in range(30):
        M = rng.choice([280, 300, 320])
        cap = rng.choice([13, 17])
        theta = Fraction(cap, M)
        pool = [n for n in range(M, 10 * M) if max(trial_prime_powers(n)) <= cap]
        A = IntSet(rng.sample(pool, rng.randint(len(pool) * 19 // 20, len(pool))))
        alpha = recip_sum(A) - Fraction(rng.randint(0, 8), M)
        expected = _outcome(_prune_to_window_reference, A, alpha, theta, M)
        assert _outcome(prune_to_window, A, alpha, theta, M, small_table) == expected, (A, alpha, theta)
        outcomes.append(expected)
    succeeded = [o for o in outcomes if o != "infeasible"]
    assert len(succeeded) >= 5 and any(len(o[0]) >= 3 for o in succeeded)
    assert "infeasible" in outcomes


def test_prune_trace_json(small_table):
    tr = prune_to_window([4, 6], Fraction(1, 3), 0, 4, small_table)
    d = tr.to_json_dict()
    assert d["final"] == [6]
    assert d["removed_elements"] == [4]
    assert d["r_initial"] == "5/12"
    assert d["r_final"] == "1/6"


def test_a_class_whose_mass_equals_theta_is_not_light(small_table):
    # in {6, 10} the classes of 3 and 5 weigh 1/2 each and that of 2 weighs 8/15
    assert prune_ppower([6, 10], Fraction(1, 2), small_table).final == IntSet([6, 10])
    tr = prune_ppower([6, 10], Fraction(8, 15), small_table)
    assert tr.removed_qs == (3, 2) and tr.final == IntSet([])


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=2, max_value=400), min_size=1, max_size=30),
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=0, max_value=1, max_denominator=24),
)
def test_prune_ppower_matches_fraction_reference(small_table, xs, pick, other):
    A = IntSet(xs)
    masses = sorted(set(fraction_masses(A).values()))
    # a theta equal to some class mass, which leaves that class standing, and one drawn freely
    for theta in (masses[pick % len(masses)], other):
        tr = prune_ppower(A, theta, small_table)
        got = (tr.removed_qs, tr.removed_elements, tr.final, tr.r_final)
        assert got == _prune_ppower_reference(A, theta)
        assert tr.r_initial == recip_sum(A)


_WINDOW_POOL = [n for n in range(280, 2800) if max(trial_prime_powers(n)) <= 13]


@settings(max_examples=60, deadline=None)
@given(
    st.sets(st.sampled_from(_WINDOW_POOL), max_size=6),
    st.integers(min_value=0, max_value=8),
    st.sampled_from(["zero", "cap", "half-mass", "mass"]),
    st.integers(min_value=0, max_value=10**6),
)
def test_prune_to_window_matches_fraction_reference(small_table, dropped, cut, kind, pick):
    # every prime power of the pool is at most 13, so theta >= 13/280 meets q <= M*theta;
    # a theta of half a class mass puts that class exactly at the pre-prune's 2*theta
    M = 280
    A = IntSet(n for n in _WINDOW_POOL if n not in dropped)
    masses = sorted(set(fraction_masses(A).values()))
    mass = masses[pick % len(masses)]
    theta = {"zero": Fraction(0), "cap": Fraction(13, M), "half-mass": mass / 2, "mass": mass}[kind]
    alpha = recip_sum(A) - Fraction(cut, M)
    expected = _outcome(_prune_to_window_reference, A, alpha, theta, M)
    assert _outcome(prune_to_window, A, alpha, theta, M, small_table) == expected
