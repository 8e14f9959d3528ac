import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from egyfrac import (
    DomainError,
    IntSet,
    ResourceLimitError,
    SolverConfig,
    SolverStatus,
    Strategy,
    build_table,
    combine_solutions,
    count_integral,
    count_subsets,
    find_subset,
    lambda_exact,
    pomerance_set,
    recip_sum,
    reduce_to_core,
)
from egyfrac import solver
from egyfrac.sieve import factorize_all
from helpers import (
    ReferenceBudgetExhausted,
    brute_count_integral,
    brute_subsets_with_sum,
    divisors_above_one,
    exhaustive_lambda,
    p_adic_valuation,
    random_lcm_capped_set,
    reference_count_integral,
    reference_count_subsets,
    reference_dfs,
    reference_find_dfs,
    reference_find_meet,
    reference_grouped_order,
    reference_lambda,
    reference_reduce,
)

ALL_STRATEGIES = [Strategy.DFS_BNB, Strategy.MEET_MIDDLE, Strategy.RESIDUE_DP]


@pytest.mark.parametrize("strategy", ALL_STRATEGIES + [Strategy.AUTO])
def test_find_subset_examples(strategy):
    cfg = SolverConfig(strategy=strategy)
    res = find_subset([2, 3, 4, 5, 6], 1, cfg)
    assert res.status == SolverStatus.FOUND
    assert res.witness == IntSet([2, 3, 6])
    res = find_subset([3, 4, 5], 1, cfg)
    assert res.status == SolverStatus.EXHAUSTED_NONE
    assert res.witness is None
    res = find_subset([], 0, cfg)
    assert res.status == SolverStatus.FOUND
    assert res.witness == IntSet([])


def test_find_subset_rejects_negative_target():
    with pytest.raises(DomainError):
        find_subset([2, 3], Fraction(-1, 2))


@pytest.mark.parametrize("strategy", ALL_STRATEGIES + [Strategy.AUTO])
def test_unreachable_target_is_exhausted_in_zero_nodes(strategy):
    # 7 divides no element, so lcm(A) is no multiple of 1/7's denominator;
    # 2 is past R(A) = 1 + 7/12; neither is searched, and neither is counted
    A = [2, 3, 4, 6, 12]
    for target in (Fraction(1, 7), Fraction(2)):
        res = find_subset(A, target, SolverConfig(strategy=strategy, node_budget=1))
        assert _outcome(res) == ("exhausted_none", None, 0), target
        assert count_subsets(A, target) == 0


def test_solver_config_rejects_an_unknown_strategy():
    with pytest.raises(DomainError, match="bogus"):
        SolverConfig(strategy="bogus")
    for target in (Fraction(1), Fraction(1, 7)):
        with pytest.raises(DomainError):
            find_subset([2, 3, 6], target, SolverConfig(strategy="bogus"))
    assert SolverConfig(strategy="dfs_bnb").strategy == Strategy.DFS_BNB


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_find_matches_brute_force_enumeration(strategy):
    rng = random.Random(31)
    cfg = SolverConfig(strategy=strategy)
    for _ in range(60):
        A = random_lcm_capped_set(rng, 2, 40, 10, 10**5)
        target = rng.choice([Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(0), recip_sum(A)])
        expected = brute_subsets_with_sum(A, target)
        res = find_subset(A, target, cfg)
        if expected:
            assert res.status == SolverStatus.FOUND
            assert res.witness.elements == min(expected), (A, target)
            assert recip_sum(res.witness) == target
        else:
            assert res.status == SolverStatus.EXHAUSTED_NONE


def test_budget_exhaustion_reported_as_status():
    res = find_subset([2, 3, 6], 1, SolverConfig(strategy=Strategy.DFS_BNB, node_budget=1))
    assert res.status == SolverStatus.BUDGET_EXCEEDED
    assert res.witness is None
    assert res.nodes_explored >= 1
    res = find_subset(
        list(range(2, 60)), Fraction(1, 7), SolverConfig(strategy=Strategy.MEET_MIDDLE, node_budget=10)
    )
    assert res.status == SolverStatus.BUDGET_EXCEEDED


def test_meet_refuses_only_past_the_budget_it_would_spend():
    # two halves of 11 elements spend 2^11 + 2^11 - 2 = 4094 nodes: a budget of
    # 4094 runs the search, and one of 4093 refuses it, reporting those 4094 nodes
    for budget, expected in ((4094, SolverStatus.FOUND), (4093, SolverStatus.BUDGET_EXCEEDED)):
        res = find_subset(range(2, 24), 1, SolverConfig(strategy=Strategy.MEET_MIDDLE, node_budget=budget))
        assert (res.status, res.nodes_explored) == (expected, 4094), budget


def test_meet_refuses_sums_past_the_byte_budget_before_enumerating(monkeypatch):
    # both halves of 2..23 have 2^11 sums of 8 bytes each, and the search holds six such
    # arrays, 48 bytes a sum; the 16 primes' halves have 2^8 sums past 2^62, Python ints
    # that cost more than 8 bytes each
    calls = []
    enumerate_sums = solver._enumerate_sums

    def spy(*args):
        calls.append(args)
        return enumerate_sums(*args)

    monkeypatch.setattr(solver, "_enumerate_sums", spy)
    cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE)
    for A, budget in ((range(2, 24), (48 << 11) - 1), (FIRST_PRIMES, 48 << 8)):
        monkeypatch.setattr(solver, "_BYTE_BUDGET", budget)
        with pytest.raises(ResourceLimitError):
            find_subset(A, recip_sum(A[:3]), cfg)
        assert calls == [], A
    monkeypatch.setattr(solver, "_BYTE_BUDGET", 48 << 11)
    assert find_subset(range(2, 24), 1, cfg).status == SolverStatus.FOUND
    assert calls


@pytest.mark.parametrize("deterministic", [True, False])
def test_meet_byte_charge_covers_its_tracemalloc_peak(deterministic, monkeypatch):
    # the charge used to cover one half's sums of the six half-sized arrays the search holds:
    # 0.50 MiB against a peak of 3.00 MiB (3.68 MiB deterministic, which walks every hit)
    charges = []
    check_bytes = solver._check_bytes
    monkeypatch.setattr(solver, "_check_bytes", lambda n, what: charges.append(n) or check_bytes(n, what))
    A = divisors_above_one(720720)[:32]
    cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE, deterministic=deterministic)
    res, peak = _traced(lambda: find_subset(A, 1, cfg))
    assert res.status == SolverStatus.FOUND and len(charges) == 1
    assert peak <= 2 * charges[0], peak / charges[0]


def test_find_meet_enumerates_each_half_once(monkeypatch):
    # the left subsets that complete a right subset are read from a stable sort
    # order of the left sums, not from a second enumeration of the left half
    calls = []
    enumerate_sums = solver._enumerate_sums

    def spy(*args):
        calls.append(args)
        return enumerate_sums(*args)

    monkeypatch.setattr(solver, "_enumerate_sums", spy)
    for A in (range(2, 24), FIRST_PRIMES):
        for deterministic in (True, False):
            calls.clear()
            cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE, deterministic=deterministic)
            assert find_subset(A, recip_sum(A[:3]), cfg).status == SolverStatus.FOUND
            assert len(calls) == 2, (A, deterministic)


def test_count_subsets_examples():
    assert count_subsets([2, 3, 4, 6, 12], 1) == 2
    assert brute_subsets_with_sum([2, 3, 4, 6, 12], 1) == [(2, 3, 6), (2, 4, 6, 12)]
    assert count_subsets([2, 3], 1) == 0
    assert count_subsets([2, 3, 6], 1) == 1


def test_count_subsets_dp_route_matches_enumeration(monkeypatch):
    rng = random.Random(32)
    for _ in range(40):
        A = random_lcm_capped_set(rng, 2, 48, 12, 5000)
        target = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2)])
        expected = len(brute_subsets_with_sum(A, target))
        # an exhaustive bound of 0 forces the DP, one of at least |A| meet in the middle
        for bound in (0, len(A)):
            monkeypatch.setattr(solver, "_EXHAUSTIVE_BOUND", bound)
            assert count_subsets(A, target) == expected, (A, target, bound)


def test_count_subsets_resource_error():
    big = IntSet(range(2, 60))  # lcm astronomically large
    with pytest.raises(ResourceLimitError):
        count_subsets(big, 1)


def _traced(call):
    """call() under tracemalloc: its result, or the ResourceLimitError it raised, and the peak in bytes."""
    tracemalloc.start()
    try:
        try:
            out = call()
        except ResourceLimitError as exc:
            out = exc
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "count,A,arg",
    [
        (count_subsets, divisors_above_one(720720)[:60], Fraction(1)),
        (count_subsets, divisors_above_one(7560), Fraction(1, 2)),
        (count_integral, divisors_above_one(7560), 5),
    ],
    ids=["subsets-int64", "subsets-object", "integral-object"],
)
def test_count_table_estimate_covers_its_peak(monkeypatch, count, A, arg):
    # 60 elements keep int64 counts and 63 need Python ints; a budget one byte
    # below the measured peak must refuse the table, before allocating it
    value, peak = _traced(lambda: count(A, arg))
    assert not isinstance(value, ResourceLimitError)
    monkeypatch.setattr(solver, "_BYTE_BUDGET", peak - 1)
    refused, refused_peak = _traced(lambda: count(A, arg))
    assert isinstance(refused, ResourceLimitError), peak
    assert refused_peak < peak // 10


def test_count_integral_refuses_its_table_before_allocating():
    # 70 elements need Python ints, and two arrays of 720720 of them would pass
    # the byte budget; the call used to build them, in 53 s and 66 MiB
    out, peak = _traced(lambda: count_integral(divisors_above_one(720720)[:70], 1))
    assert isinstance(out, ResourceLimitError)
    assert peak < 1 << 20


def test_count_integral_examples():
    assert count_integral([2, 3, 6], 1) == 2
    assert count_integral([2], 2) == 2
    assert count_integral([2, 3], 1) == 1


def test_count_integral_matches_brute_force():
    rng = random.Random(33)
    for _ in range(40):
        A = random_lcm_capped_set(rng, 2, 40, 10, 10**5)
        k = rng.randint(1, 4)
        assert count_integral(A, k) == brute_count_integral(A, k), (A, k)


def test_count_integral_fractional_route_matches_dp(monkeypatch):
    rng = random.Random(34)
    for _ in range(25):
        A = random_lcm_capped_set(rng, 2, 40, 10, 10**5)
        k = rng.randint(1, 3)
        # an exhaustive bound of 0 forces the DP, one of at least |A| meet in the middle
        with monkeypatch.context() as m:
            m.setattr(solver, "_EXHAUSTIVE_BOUND", 0)
            via_dp = count_integral(A, k)
        with monkeypatch.context() as m:
            m.setattr(solver, "_EXHAUSTIVE_BOUND", len(A))
            via_parts = count_integral(A, k)
        assert via_dp == via_parts


def test_dp_counters_past_62_elements():
    # a count over 71 elements can pass 2^63, so neither DP may run in int64
    A = divisors_above_one(10080)
    assert len(A) == 71
    assert count_integral(A, 10080) == 2**71  # 10080/n is an integer for every n
    assert count_integral(A, 1) == 234244397131121236
    assert count_subsets(A, 0) == 1
    assert count_subsets(A, recip_sum(A)) == 1


def test_count_integral_rejects_bad_k():
    with pytest.raises(DomainError):
        count_integral([2, 3], 0)


def test_combine_solutions_examples():
    assert combine_solutions([(IntSet([2]), 2), (IntSet([3, 6]), 2)]) == IntSet([2, 3, 6])
    assert combine_solutions([(IntSet([2]), 2)]) is None
    assert recip_sum([4, 6, 12]) == Fraction(1, 2)
    assert combine_solutions([(IntSet([4, 6, 12]), 2), (IntSet([2]), 2)]) == IntSet([2, 4, 6, 12])


def test_combine_solutions_validates_parts():
    with pytest.raises(DomainError, match="part 1"):
        combine_solutions([(IntSet([2]), 2), (IntSet([3]), 2)])  # 1/3 != 1/2
    with pytest.raises(DomainError, match="part 1"):
        combine_solutions([(IntSet([2]), 2), (IntSet([2]), 2)])  # overlap
    combined = combine_solutions([(IntSet([2]), 2), (IntSet([3, 6]), 2), (IntSet([4, 12]), 3)])
    assert combined == IntSet([2, 3, 6])  # smallest qualifying d wins


def test_combine_result_sums_to_one():
    parts = [(IntSet([3]), 3), (IntSet([4, 12]), 3), (IntSet([6, 10, 15]), 3)]
    for s, d in parts:
        assert recip_sum(s) == Fraction(1, d)
    merged = combine_solutions(parts)
    assert merged is not None
    assert recip_sum(merged) == 1


def test_lambda_exact_examples():
    value, witness = lambda_exact(2)
    assert value == Fraction(1, 2) and witness == IntSet([2])
    value, witness = lambda_exact(5)
    assert value == Fraction(77, 60) and witness == IntSet([2, 3, 4, 5])
    value, witness = lambda_exact(6)
    assert value == Fraction(77, 60) and witness == IntSet([2, 3, 4, 5])


def test_lambda_matches_exhaustive_oracle_small():
    for N in range(2, 13):
        value, witness = lambda_exact(N)
        assert value == exhaustive_lambda(N), N
        assert recip_sum(witness) == value
        assert not brute_subsets_with_sum(witness, 1)


def test_lambda_monotone():
    values = [lambda_exact(N)[0] for N in range(2, 15)]
    assert all(a <= b for a, b in zip(values, values[1:]))


def test_lambda_resource_bound():
    # at N = 75 the 46 bitsets of lcm(core) + 1 bits would hold 62 MB; one alone
    # is 1.35 MB, so the peak shows that none was allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="N=75"):
            lambda_exact(75)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lambda_node_budget():
    assert lambda_exact(8, node_budget=10**3) == lambda_exact(8)
    with pytest.raises(ResourceLimitError, match="node budget"):
        lambda_exact(8, node_budget=1)
    with pytest.raises(DomainError):
        lambda_exact(8, node_budget=0)


def test_lambda_matches_reference_search():
    # the branch and bound over all of [2, N] with a find_subset per node
    for N in range(2, 41):
        value, witness = lambda_exact(N)
        assert (value, witness.elements) == reference_lambda(N), N


def test_lambda_pinned_past_the_old_cap():
    # value and witness of the search over all of [2, N] (reference_lambda), too slow past N = 50 for the suite
    assert lambda_exact(55)[0] == Fraction(490135138231227457229497, 164249358725037825439200)
    value, witness = lambda_exact(60)
    assert value == Fraction(29419316252706653702041523, 9690712164777231700912800)
    assert witness == IntSet(
        [2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 22, 23, 25, 26, 27, 29, 31, 32, 34, 35,
         36, 37, 38, 39, 41, 43, 44, 46, 47, 49, 50, 51, 53, 55, 57, 58, 59]
    )
    assert recip_sum(witness) == value


def test_residue_dp_refuses_sets_past_the_byte_budget():
    # the 431 divisors of 7207200 above 1 at target 1: the suffix sets of the
    # residue DP would hold 55.6 MiB, and the DP used to build them (62 MiB peak)
    A = divisors_above_one(7207200)
    out, peak = _traced(lambda: find_subset(A, 1, SolverConfig(strategy=Strategy.RESIDUE_DP)))
    assert isinstance(out, ResourceLimitError)
    assert peak < 1 << 20
    # auto sees the same estimate and searches by dfs_bnb instead
    res, peak = _traced(lambda: find_subset(A, 1))
    assert (res.status, res.witness) == (SolverStatus.FOUND, IntSet([2, 3, 6]))
    assert peak < 1 << 20


def test_residue_dp_counts_a_linear_set_by_its_prefix_sum():
    # a set holds at most min(T + 1, prefix sum + 1) bits: 11.5 MiB here, where
    # 288 sets of T + 1 bits would be 153 MiB, past the byte budget
    A = divisors_above_one(1441440)
    target = recip_sum(A) - Fraction(1, 2)
    res = find_subset(A, target, SolverConfig(strategy=Strategy.RESIDUE_DP))
    assert res.status == SolverStatus.FOUND
    assert recip_sum(res.witness) == target


def test_residue_dp_spends_one_node_per_element():
    # the DP runs only when its |A| nodes fit the budget
    A = divisors_above_one(720720)[:40]
    cut = find_subset(A, Fraction(1, 2), SolverConfig(strategy=Strategy.RESIDUE_DP, node_budget=39))
    assert (cut.status, cut.witness, cut.nodes_explored) == (SolverStatus.BUDGET_EXCEEDED, None, 40)
    res = find_subset(A, Fraction(1, 2), SolverConfig(strategy=Strategy.RESIDUE_DP, node_budget=40))
    assert (res.status, res.nodes_explored) == (SolverStatus.FOUND, 40)
    assert recip_sum(res.witness) == Fraction(1, 2)


def test_strategy_agreement_quick():
    rng = random.Random(35)
    for _ in range(30):
        A = random_lcm_capped_set(rng, 2, 60, 16, 10**5)
        for target in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            results = [
                find_subset(A, target, SolverConfig(strategy=s)) for s in ALL_STRATEGIES
            ]
            statuses = {r.status for r in results}
            assert len(statuses) == 1, (A, target, statuses)
            witnesses = {r.witness for r in results}
            assert len(witnesses) == 1, (A, target, witnesses)


def test_integral_count_links_to_unit_count():
    # when recip_sum(A) < 2/k the only integral values are 0 and 1
    rng = random.Random(36)
    checked = 0
    while checked < 20:
        A = random_lcm_capped_set(rng, 2, 60, 12, 10**5)
        k = rng.choice([1, 2, 3])
        if recip_sum(A) >= Fraction(2, k):
            continue
        assert count_subsets(A, Fraction(1, k)) == count_integral(A, k) - 1
        checked += 1


def test_dfs_deep_input_runs_out_of_budget():
    # 1498 elements: the recursive search raised RecursionError here
    res = find_subset(range(2, 1500), 1, SolverConfig(strategy=Strategy.DFS_BNB, node_budget=10**5))
    assert res.status == SolverStatus.BUDGET_EXCEEDED
    assert res.nodes_explored == 10**5 + 1


# no element is a multiple of 7 or of 16, so targets with 1/7, 1/49 or 1/16 in
# them carry a prime, or a higher prime power, that the set lacks
_EQUIVALENCE_POOL = [n for n in range(2, 90) if n % 7 and n % 16]
_EQUIVALENCE_TARGETS = [
    Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 12), Fraction(0),
    Fraction(1, 7), Fraction(1, 2) + Fraction(1, 49), Fraction(1, 16), Fraction(3, 16),
]


def _equivalence_instances(seed: int, count: int, max_size: int):
    rng = random.Random(seed)
    for _ in range(count):
        A = sorted(rng.sample(_EQUIVALENCE_POOL, rng.randint(1, max_size)))
        if rng.random() < 0.3:
            target = recip_sum(rng.sample(A, rng.randint(0, len(A))))
        else:
            target = rng.choice(_EQUIVALENCE_TARGETS)
        yield A, target, rng.choice([20, 200, 2000, 10**6])


def _outcome(res):
    return res.status.value, None if res.witness is None else res.witness.elements, res.nodes_explored


@pytest.mark.parametrize("deterministic", [True, False])
def test_dfs_matches_fraction_reference(deterministic):
    # the scaled-integer engine walks the same tree as the recursive Fraction
    # search: same status, witness and node count, budget cut-offs included
    statuses = set()
    for A, target, budget in _equivalence_instances(41, 250, 30):
        cfg = SolverConfig(strategy=Strategy.DFS_BNB, node_budget=budget, deterministic=deterministic)
        expected = reference_find_dfs(A, target, budget, deterministic)
        assert _outcome(find_subset(A, target, cfg)) == expected, (A, target, budget)
        statuses.add(expected[0])
    assert statuses == {"found", "exhausted_none", "budget_exceeded"}


def test_dfs_kernel_matches_fraction_reference_in_ascending_order():
    # find_subset runs the ascending order only after a grouped-order hit; here
    # the kernel runs it alone, exhausted and budget-cut searches included;
    # find_subset answers the targets _scaled rules out before any search
    for A, target, budget in _equivalence_instances(42, 150, 30):
        scaled = solver._scaled(A, target)
        if scaled is None:
            continue
        L, _, T = scaled
        counter = [0]
        try:
            expected = reference_dfs(A, target, counter, budget)
        except ReferenceBudgetExhausted:
            expected = "budget"
        factors = factorize_all(list(A))
        got, nodes = solver._dfs_search(A, L, T, factors, budget)
        if nodes > budget:
            got = "budget"
        assert (got, nodes) == (expected, counter[0]), (A, target, budget)


def _reference_at_limit(order, target, limit):
    counter = [0]
    try:
        return reference_dfs(order, target, counter, limit), counter[0]
    except ReferenceBudgetExhausted:
        return None, counter[0]


def test_dfs_kernel_cuts_at_every_limit():
    # every limit from 1 to one past the full search stops the kernel where the
    # recursive reference stops, in grouped and in ascending order
    found_at_limit = exhausted = 0
    for A, target, _ in _equivalence_instances(46, 100, 14):
        scaled = solver._scaled(A, target)
        if scaled is None:
            continue
        L, _, T = scaled
        factors = factorize_all(list(A))
        for order in (reference_grouped_order(A), A):
            witness, full = solver._dfs_search(order, L, T, factors, 10**6)
            for limit in range(1, full + 2):
                got = solver._dfs_search(order, L, T, factors, limit)
                assert got == _reference_at_limit(order, target, limit), (A, target, order, limit)
            # a witness at node `limit` is returned; one limit lower cuts the search
            if witness is not None:
                assert solver._dfs_search(order, L, T, factors, full) == (witness, full)
                assert solver._dfs_search(order, L, T, factors, full - 1) == (None, full)
                found_at_limit += full > 1
            else:
                exhausted += full > 1
    assert found_at_limit > 20 and exhausted > 10, (found_at_limit, exhausted)
    # the empty order with T > 0 is cut at its root; T = 0 is the empty witness at node 1
    for limit in (1, 2):
        assert solver._dfs_search([], 1, 1, {}, limit) == (None, 1)
        assert solver._dfs_search([2, 3, 6], 6, 0, factorize_all([2, 3, 6]), limit) == ((), 1)
    assert _reference_at_limit([], Fraction(1), 1) == (None, 1)
    assert _reference_at_limit([2, 3, 6], Fraction(0), 1) == ((), 1)


def test_find_dfs_grouped_hit_at_the_budget():
    # the grouped search spends the whole budget on its witness, so the
    # ascending re-search gets limit 0 and is cut at its root
    A, target = [2, 3, 4, 5, 6, 10, 12, 15], Fraction(1)
    L, _, T = solver._scaled(A, target)
    factors = factorize_all(A)
    _, budget = solver._dfs_search(solver._grouped_order(A, factors), L, T, factors, 10**6)
    res = find_subset(A, target, SolverConfig(strategy=Strategy.DFS_BNB, node_budget=budget))
    assert _outcome(res) == ("budget_exceeded", None, budget + 1)
    assert _outcome(res) == reference_find_dfs(A, target, budget)
    first = find_subset(A, target, SolverConfig(strategy=Strategy.DFS_BNB, node_budget=budget, deterministic=False))
    assert first.status == SolverStatus.FOUND and first.nodes_explored == budget


@pytest.mark.parametrize("deterministic", [True, False])
def test_meet_matches_fraction_reference(deterministic):
    for A, target, budget in _equivalence_instances(43, 120, 20):
        cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE, node_budget=budget, deterministic=deterministic)
        expected = reference_find_meet(A, target, budget, deterministic)
        assert _outcome(find_subset(A, target, cfg)) == expected, (A, target, budget)


def test_counters_match_fraction_reference(monkeypatch):
    rng = random.Random(44)
    dp_runs = 0
    for A, target, _ in _equivalence_instances(44, 80, 16):
        k = rng.randint(1, 4)
        expected = reference_count_subsets(A, target), reference_count_integral(A, k)
        # meet in the middle, forced by an exhaustive bound of at least |A|
        with monkeypatch.context() as m:
            m.setattr(solver, "_EXHAUSTIVE_BOUND", len(A))
            assert (count_subsets(A, target), count_integral(A, k)) == expected, (A, target, k)
        # the DP, forced by an exhaustive bound of 0, wherever its table fits the byte budget
        with monkeypatch.context() as m:
            m.setattr(solver, "_EXHAUSTIVE_BOUND", 0)
            for count, arg, want in ((count_subsets, target, expected[0]), (count_integral, k, expected[1])):
                try:
                    got = count(A, arg)
                except ResourceLimitError:
                    continue
                assert got == want, (A, arg)
                dp_runs += 1
    assert dp_runs > 60, dp_runs


FIRST_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.mark.parametrize(
    "A,dtype",
    [
        ([], np.int64),
        (FIRST_PRIMES[:10], np.int64),  # lcm 6469693230: int64 sums
        (FIRST_PRIMES, object),  # lcm about 3.3 * 10^19, past 2^62: Python-int sums
        # lcm about 2^64 with small weights: the cyclic width alone is past 2^62
        ([4294967279, 4294967291, 4294967279 * 4294967291], object),
    ],
)
def test_meet_counters_on_both_sides_of_the_int64_switch(A, dtype):
    L = math.lcm(*A)
    weights = [L // n for n in A]
    for half in solver._alternating_split(weights):
        assert solver._enumerate_sums(half, sum(weights) + L).dtype == dtype
    for target in {Fraction(0), Fraction(1), recip_sum(A[:1]), recip_sum(A[1:3]), recip_sum(A[::3])}:
        assert count_subsets(A, target) == reference_count_subsets(A, target), (A, target)
    for k in (1, 2, 6, 35):
        assert count_integral(A, k) == reference_count_integral(A, k), (A, k)
    for target in {recip_sum(A[:1]), recip_sum(A[::3])}:
        for deterministic in (True, False):
            cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE, deterministic=deterministic)
            expected = reference_find_meet(A, target, cfg.node_budget, deterministic)
            assert _outcome(find_subset(A, target, cfg)) == expected, (A, target)


def test_enumerate_sums_order_and_dtype():
    # entry j sums the weights at the set bits of j, so powers of two give range(2^h)
    for h in range(8):
        sums = solver._enumerate_sums([1 << t for t in range(h)])
        assert sums.dtype == np.int64 and sums.tolist() == list(range(1 << h))
    sums = solver._enumerate_sums([1 << 62, 1])
    assert sums.dtype == object and sums.tolist() == [0, 1 << 62, 1, (1 << 62) + 1]
    assert solver._enumerate_sums([3, 5], 1 << 62).dtype == object


def _solution_elements(A, target) -> set[int]:
    """The union of all subsets of A with reciprocal sum target, by enumerating
    every subset sum in units of 1/L."""
    L = math.lcm(target.denominator, *A)
    T = target * L
    sums = [(0, 0)]  # (sum in units of 1/L, bitmask of the subset)
    for i, n in enumerate(A):
        sums += [(s + L // n, mask | 1 << i) for s, mask in sums]
    used = 0
    for s, mask in sums:
        if s == T:
            used |= mask
    return {n for i, n in enumerate(A) if used >> i & 1}


def test_reduce_to_core_removes_no_solution_element():
    removed = 0
    for A, target, _ in _equivalence_instances(51, 400, 12):
        red = reduce_to_core(A, target)
        assert _solution_elements(A, target) <= set(red.core), (A, target)
        assert sorted(red.core.elements + red.removed.elements) == A
        assert sorted(n for _, dead in red.steps for n in dead) == list(red.removed)
        removed += len(red.removed)
        if target.denominator in (7, 49 * 2, 16):
            # 7 and 16 divide no element: no subset can reach the target
            assert not red.core, (A, target)
    assert removed > 0


def _meets_condition(S, p: int, P: int, target: Fraction) -> bool:
    # sum of P/n over S is P*target mod P as p-adic numbers: their difference over P has no p below
    diff = sum((Fraction(P, n) for n in S), Fraction(0)) - P * target
    return (diff / P).denominator % p != 0


def test_reduce_to_core_certificate_replays():
    # at each step, no subset of the prime's class among the elements still
    # present meets its congruence and contains a removed element
    steps = 0
    for A, target, _ in _equivalence_instances(52, 250, 12):
        red = reduce_to_core(A, target)
        alive = set(A)
        for p, dead in red.steps:
            cls = sorted(n for n in alive if n % p == 0)
            v = max([p_adic_valuation(n, p) for n in cls] + [p_adic_valuation(target.denominator, p)])
            P = p**v
            for n in dead:
                rest = [m for m in cls if m != n]
                forced = [n] if n in cls else []
                for r in range(len(rest) + 1):
                    for S in combinations(rest, r):
                        assert not _meets_condition(forced + list(S), p, P, target), (A, target, p, n, S)
            alive -= set(dead)
            steps += 1
        assert alive == set(red.core)
        assert red.skipped == ()
    assert steps > 0


def test_reduce_to_core_skips_a_prime_past_the_byte_bound(monkeypatch):
    # with no DP allowed only the cheap test for a target prime power the set lacks runs
    monkeypatch.setattr(solver, "_BYTE_BUDGET", 0)
    red = reduce_to_core([2, 3, 6, 10], 1)
    assert red.core == IntSet([2, 3, 6, 10]) and red.steps == ()
    assert red.skipped == (2, 3, 5)
    assert find_subset([2, 3, 6, 10], 1).witness == IntSet([2, 3, 6])
    red = reduce_to_core([2, 3, 6, 10], Fraction(1, 7))
    assert red.steps == ((7, (2, 3, 6, 10)),) and not red.core


def test_auto_on_the_core_keeps_the_witness():
    # every solution lies in the core, so auto finds the same lex-smallest witness
    for A, target, _ in _equivalence_instances(53, 200, 12):
        auto = find_subset(A, target)
        dfs = find_subset(A, target, SolverConfig(strategy=Strategy.DFS_BNB))
        assert (auto.status, auto.witness) == (dfs.status, dfs.witness), (A, target)
        if auto.status == SolverStatus.EXHAUSTED_NONE and not reduce_to_core(A, target).core:
            assert auto.nodes_explored == 0


def test_auto_rules_out_a_foreign_denominator_before_factoring(monkeypatch):
    # 2^61 - 1 is prime: factoring it by trial division would not end in practice
    factorize_all_ = solver.factorize_all

    def guarded(elems):
        assert max(elems) <= 6, elems
        return factorize_all_(elems)

    monkeypatch.setattr(solver, "factorize_all", guarded)
    for target in (Fraction(1, 2**61 - 1), Fraction(1, 2 * (2**61 - 1)), Fraction(1, 4), Fraction(5, 7)):
        res = find_subset([2, 3, 6], target)
        assert (res.status, res.nodes_explored) == (SolverStatus.EXHAUSTED_NONE, 0), target
    assert find_subset([2, 3, 6], Fraction(1, 2)).witness == IntSet([2])
    assert find_subset([], Fraction(1, 3)).status == SolverStatus.EXHAUSTED_NONE


def _reduction(A, target):
    red = reduce_to_core(A, target)
    return red.core.elements, red.steps, red.skipped


# with 1/101 the large-prime pass does not run: 101 is past sqrt(2750)
_REDUCE_TARGETS = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(5, 6), Fraction(1, 101)]


@pytest.mark.parametrize("N", [30, 250, 750, 1250, 2750])
def test_reduce_to_core_matches_reference_on_pomerance_sets(N):
    members = pomerance_set(N, 1, build_table(N)).members
    for target in _REDUCE_TARGETS:
        assert _reduction(members, target) == reference_reduce(members, target), target


def test_reduce_to_core_matches_reference_on_ranges():
    for N in range(1, 201):
        assert _reduction(range(2, N + 1), 1) == reference_reduce(range(2, N + 1), 1), N


def test_reduce_to_core_matches_reference_on_random_sets():
    # a large prime tests its class again when a small prime's step shrank it
    rng, targets = random.Random(1), random.Random(2)
    again = 0
    for _ in range(400):
        A = sorted(rng.sample(range(2, 400), rng.randrange(10, 60)))
        target = targets.choice(_REDUCE_TARGETS[:4] + [Fraction(0), Fraction(7, 12), recip_sum(A[::4])])
        got = _reduction(A, target)
        assert got == reference_reduce(A, target), (A, target)
        primes = [p for p, _ in got[1]]
        root = math.isqrt(A[-1])
        again += any(p > root and min(primes[:j], default=p) <= root for j, p in enumerate(primes))
    assert again > 10, again


def test_reduce_to_core_numpy_pass_keeps_the_skip_rule(monkeypatch):
    # the large-prime pass skips exactly the classes the loop's _dead_members would skip
    members = pomerance_set(2750, 1, build_table(2750)).members
    skipped = 0
    for budget in (40, 300, 3000):
        monkeypatch.setattr(solver, "_BYTE_BUDGET", budget)
        with monkeypatch.context() as m:
            m.setattr(solver, "_large_prime_pass", lambda *args: {})
            expected = _reduction(members, 1)
        assert _reduction(members, 1) == expected, budget
        skipped += len(expected[2])
    assert skipped > 0


def test_reduce_to_core_decides_a_large_prime_class_by_its_cofactor_sum(monkeypatch):
    calls = []
    dead_members = solver._dead_members

    def counted(p, *args):
        calls.append(p)
        return dead_members(p, *args)

    monkeypatch.setattr(solver, "_dead_members", counted)
    # cofactors 1, 2 with lcm 2: the sum 2/1 + 2/2 = 3 is below 11, so both go with no DP
    assert _reduction([11, 22], 1) == reference_reduce([11, 22], 1) == ((), ((11, (11, 22)),), ())
    assert calls == []
    # cofactors 1, 2, 4: the sum 4 + 2 + 1 = 7 is not below 7, and 1/7 + 1/14 + 1/28 = 1/4 keeps the class;
    # cofactors 1, 2, 3: the sum 6 + 3 + 2 = 11 is not below 7, but no subset sum
    # (6, 3, 2, 9, 8, 5, 11) is a multiple of 7, so the DP removes the whole class
    for A, steps in (([7, 14, 28], ((2, (14, 28)), (7, (7,)))), ([7, 14, 21], ((7, (7, 14, 21)),))):
        calls.clear()
        assert _reduction(A, 1) == reference_reduce(A, 1) == ((), steps, ()), A
        assert calls[0] == 7, calls
    # a class past the byte budget is skipped before its cofactor sum 3 is compared
    p = 2147483659
    assert _reduction([p, 2 * p], 1) == ((p,), ((2, (2 * p,)),), (p,))


def test_reduce_to_core_sends_no_large_prime_to_the_loop_dp(monkeypatch):
    # every large-prime class of this set has its cofactor sum below its prime
    calls = []
    dead_members = solver._dead_members

    def counted(p, *args):
        calls.append(p)
        return dead_members(p, *args)

    monkeypatch.setattr(solver, "_dead_members", counted)
    members = pomerance_set(2750, 1, build_table(2750)).members
    assert not reduce_to_core(members, 1).core
    assert calls and max(calls) ** 2 <= 2750 and len(calls) < 40, calls
