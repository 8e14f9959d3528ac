import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from egyfrac import (
    DomainError,
    IntSet,
    ResourceLimitError,
    SolverConfig,
    SolverStatus,
    Strategy,
    combine_solutions,
    count_integral,
    count_subsets,
    find_subset,
    lambda_exact,
    recip_sum,
    reduce_to_core,
)
from egyfrac import solver
from egyfrac.sieve import prime_factors
from helpers import (
    ReferenceBudgetExhausted,
    brute_count_integral,
    brute_subsets_with_sum,
    divisors_above_one,
    exhaustive_lambda,
    random_lcm_capped_set,
    reference_count_integral,
    reference_count_subsets,
    reference_dfs,
    reference_find_dfs,
    reference_find_meet,
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


def test_count_subsets_examples():
    assert count_subsets([2, 3, 4, 6, 12], 1) == 2
    assert brute_subsets_with_sum([2, 3, 4, 6, 12], 1) == [(2, 3, 6), (2, 4, 6, 12)]
    assert count_subsets([2, 3], 1) == 0
    assert count_subsets([2, 3, 6], 1) == 1


def test_count_subsets_dp_route_matches_enumeration(monkeypatch):
    monkeypatch.setattr(solver, "_EXHAUSTIVE_BOUND", 0)
    rng = random.Random(32)
    for _ in range(40):
        A = random_lcm_capped_set(rng, 2, 48, 12, 5000)
        target = rng.choice([Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2)])
        via_dp = count_subsets(A, target)
        assert via_dp == len(brute_subsets_with_sum(A, target)), (A, target)


def test_count_subsets_resource_error():
    big = IntSet(range(2, 60))  # lcm astronomically large
    with pytest.raises(ResourceLimitError):
        count_subsets(big, 1)


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
        via_dp = count_integral(A, k)
        with monkeypatch.context() as m:
            m.setattr(solver, "_DP_LCM_BOUND", 1)
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
    with pytest.raises(ResourceLimitError):
        lambda_exact(31)


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
    # the kernel runs it alone, exhausted and budget-cut searches included
    for A, target, budget in _equivalence_instances(42, 150, 30):
        counter = [0]
        try:
            expected = reference_dfs(A, target, counter, budget, prime_factors(target.denominator))
        except ReferenceBudgetExhausted:
            expected = "budget"
        nodes = solver._Nodes(budget)
        L, T = solver._in_units(A, target)
        factors = {n: prime_factors(n) for n in A}
        try:
            got = solver._dfs_search(A, L, T, factors, prime_factors(target.denominator), nodes)
        except solver._BudgetExhausted:
            got = "budget"
        assert (got, nodes.count) == (expected, counter[0]), (A, target, budget)


@pytest.mark.parametrize("deterministic", [True, False])
def test_meet_matches_fraction_reference(deterministic):
    for A, target, budget in _equivalence_instances(43, 120, 20):
        cfg = SolverConfig(strategy=Strategy.MEET_MIDDLE, node_budget=budget, deterministic=deterministic)
        expected = reference_find_meet(A, target, budget, deterministic)
        assert _outcome(find_subset(A, target, cfg)) == expected, (A, target, budget)


def test_counters_match_fraction_reference(monkeypatch):
    rng = random.Random(44)
    for A, target, _ in _equivalence_instances(44, 80, 16):
        assert count_subsets(A, target) == reference_count_subsets(A, target), (A, target)
        k = rng.randint(1, 4)
        # an lcm bound of 1 forces the enumeration branch of count_integral
        with monkeypatch.context() as m:
            m.setattr(solver, "_DP_LCM_BOUND", 1)
            assert count_integral(A, k) == reference_count_integral(A, k), (A, k)


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


def _p_adic_valuation(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


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
            v = max([_p_adic_valuation(n, p) for n in cls] + [_p_adic_valuation(target.denominator, p)])
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
    monkeypatch.setattr(solver, "_REDUCE_BYTE_BOUND", 0)
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
