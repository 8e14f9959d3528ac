import random
from fractions import Fraction

import pytest

from egyfrac import (
    DomainError,
    InfeasibleError,
    IntSet,
    exact_prime_powers,
    ppowers_in_set,
    prune_ppower,
    prune_to_window,
    qsum_check,
    rec_sum_q,
    recip_sum,
)


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
            for q in ppowers_in_set(tr.final, small_table):
                assert rec_sum_q(tr.final, q, small_table) >= theta
            if theta > 0:
                assert tr.r_final > tr.r_initial - theta * qsum_check(A, small_table)
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


def _prune_to_window_reference(A, alpha, theta, M, t):
    """The window trimmer re-derived from scratch at every step: the
    pre-prune reruns prune_ppower at 2*theta on the whole working set, and
    the floor recomputes every class mass."""
    working = sorted(A)
    r = recip_sum(A)
    removed = []
    while r >= alpha:
        survivors = prune_ppower(working, 2 * theta, t).final
        if not survivors:
            raise InfeasibleError("pre-prune emptied the set")
        x = survivors.elements[0]
        working.remove(x)
        r -= Fraction(1, x)
        removed.append(x)
        if any(rec_sum_q(working, q, t) < theta for q in ppowers_in_set(working, t)):
            raise InfeasibleError("floor lost")
    return tuple(removed), IntSet(working), r


def _outcome(f, *args):
    try:
        tr = f(*args)
    except InfeasibleError:
        return "infeasible"
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
        pool = [n for n in range(M, 10 * M) if max(exact_prime_powers(n, small_table)) <= cap]
        A = IntSet(rng.sample(pool, rng.randint(len(pool) * 19 // 20, len(pool))))
        alpha = recip_sum(A) - Fraction(rng.randint(0, 8), M)
        expected = _outcome(_prune_to_window_reference, A, alpha, theta, M, small_table)
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
