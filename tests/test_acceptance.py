"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import math
import random
import time
from fractions import Fraction

from egyfrac import (
    IntSet,
    SolverConfig,
    SolverStatus,
    Strategy,
    build_decomposition,
    count_integral,
    count_subsets,
    find_subset,
    fourier_count,
    lambda_exact,
    mertens_q_sum,
    omega,
    pomerance_set,
    prune_ppower,
    prune_to_window,
    recip_sum,
    sieve_survivors,
    verify_solution_free,
)
from helpers import cosine_weight, exhaustive_lambda, fraction_masses, random_lcm_capped_set


def _report(criterion: str, ok: bool, details: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"{criterion}: {details}"


def test_criterion_1_fourier_oracle_equivalence():
    rng = random.Random(101)
    start = time.monotonic()
    agree = 0
    for _ in range(200):
        A = random_lcm_capped_set(rng, 2, 60, 16, 10**5)
        k = rng.choice([1, 2, 3])
        _, rounded = fourier_count(A, k)
        if rounded == count_integral(A, k):
            agree += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 1 (fourier vs residue-DP oracle)",
        agree == 200 and elapsed < 60,
        f"{agree}/200 agree, {elapsed:.1f}s < 60s",
    )


def test_criterion_2_count_offset_identity():
    rng = random.Random(102)
    checked = 0
    ok = True
    while checked < 50:
        A = random_lcm_capped_set(rng, 2, 60, 14, 10**5)
        k = rng.choice([1, 2, 3])
        if recip_sum(A) >= Fraction(2, k):
            continue
        if count_subsets(A, Fraction(1, k)) != count_integral(A, k) - 1:
            ok = False
            break
        checked += 1
    _report(
        "criterion 2 (unit-target count equals integral count minus one)",
        ok and checked == 50,
        f"{checked}/50 instances with recip_sum(A) < 2/k",
    )


def test_criterion_3_strategy_agreement():
    rng = random.Random(103)
    strategies = [Strategy.DFS_BNB, Strategy.MEET_MIDDLE, Strategy.RESIDUE_DP]
    cases = agreements = 0
    for _ in range(200):
        A = random_lcm_capped_set(rng, 2, 60, 16, 10**5)
        for target in (Fraction(1), Fraction(1, 2), Fraction(1, 3)):
            cases += 1
            results = [find_subset(A, target, SolverConfig(strategy=s)) for s in strategies]
            statuses = {r.status for r in results}
            witnesses = {r.witness for r in results}
            count = count_subsets(A, target)
            consistent = (
                len(statuses) == 1
                and len(witnesses) == 1
                and (results[0].status == SolverStatus.FOUND) == (count > 0)
            )
            agreements += consistent
    _report(
        "criterion 3 (dfs_bnb / meet_middle / residue_dp agreement)",
        agreements == cases,
        f"{agreements}/{cases} status+witness+count agreements",
    )


def test_criterion_4_lambda_table():
    start = time.monotonic()
    table = {}
    ok = True
    for N in range(2, 21):
        value, witness = lambda_exact(N)
        table[N] = value
        if recip_sum(witness) != value:
            ok = False
    for N in range(2, 17):
        if table[N] != exhaustive_lambda(N):
            ok = False
    monotone = all(table[N] <= table[N + 1] for N in range(2, 20))
    spot = table[2] == Fraction(1, 2) and table[5] == Fraction(77, 60)
    elapsed = time.monotonic() - start
    _report(
        "criterion 4 (exact lambda table N=2..20, oracle N<=16)",
        ok and spot and monotone and elapsed < 600,
        f"search vs enumeration agree, monotone, lambda(2)={table[2]}, "
        f"lambda(5)={table[5]}, {elapsed:.1f}s < 600s",
    )


def test_criterion_5_pomerance_verification(table):
    verified = 0
    seen = set()
    for N in range(2, 201):
        rep = pomerance_set(N, 1, table)
        if rep.members.elements not in seen:
            seen.add(rep.members.elements)
            if not verify_solution_free(rep.members, 10**7):
                _report("criterion 5 (pomerance sets solution-free)", False, f"N={N} has a solution")
        verified += 1
    recips = [pomerance_set(N, 1, table).recip for N in (50, 100, 150, 200)]
    increasing = all(a < b for a, b in zip(recips, recips[1:]))
    _report(
        "criterion 5 (pomerance sets solution-free, C=1)",
        verified == 199 and increasing,
        f"{verified}/199 values of N verified ({len(seen)} distinct sets), "
        f"recip strictly increasing over N=50,100,150,200",
    )


def test_criterion_6_pruning_postconditions(table):
    rng = random.Random(106)
    start = time.monotonic()
    violations = 0
    instances = 0
    thetas = [Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)]
    for i in range(500):
        A = IntSet(rng.sample(range(2, 10_000), rng.randint(1, 50)))
        theta = thetas[i % 4]
        tr = prune_ppower(A, theta, table)
        for mass in fraction_masses(tr.final).values():  # per-class floor
            if mass < theta:
                violations += 1
        if theta > 0:
            qsum = sum((Fraction(1, q) for q in fraction_masses(A)), Fraction(0))
            if not tr.r_final > tr.r_initial - theta * qsum:  # mass-loss bound
                violations += 1
        elif tr.r_final != tr.r_initial:
            violations += 1
        r = recip_sum(A)
        if r > 0:
            alpha = r * Fraction(rng.randint(1, 3), 4)
            M = min(A)
            if alpha > 0:
                wr = prune_to_window(A, alpha, 0, M, table)
                if not (alpha - Fraction(1, M) <= wr.r_final < alpha):  # window membership
                    violations += 1
        instances += 1
    elapsed = time.monotonic() - start
    _report(
        "criterion 6 (pruning postconditions on 500 instances)",
        violations == 0 and instances == 500 and elapsed < 30,
        f"{violations} violations, {elapsed:.1f}s < 30s",
    )


def test_criterion_7_double_counting(table):
    rng = random.Random(107)
    failures = 0
    for _ in range(1000):
        A = IntSet(rng.sample(range(2, 100_001), rng.randint(1, 40)))
        # sum over q of mass(A; q)/q: each class member n adds (q/n)/q = 1/n
        parts = build_decomposition(A, table).parts
        lhs = sum((Fraction(1, n) for members in parts.values() for n in members), Fraction(0))
        rhs = sum((Fraction(omega(n, table), n) for n in A), Fraction(0))
        if lhs != rhs:
            failures += 1
    _report(
        "criterion 7 (class-mass double counting on 1000 sets)",
        failures == 0,
        f"{failures} mismatches over A within [2, 10^5]",
    )


def test_criterion_8_mertens_drift_and_sieve_density(table):
    c_hat = float(mertens_q_sum(10**6, table)) - math.log(math.log(10**6))
    drifts = {}
    ok = True
    for X in (10**3, 10**4, 10**5):
        drift = abs(float(mertens_q_sum(X, table)) - math.log(math.log(X)) - c_hat)
        drifts[X] = drift
        if drift > 1 / math.log(X):
            ok = False
    N = 10**6
    count = len(sieve_survivors(N, 2 * N - 1, 3, 100, table))
    K = (count / N) * (math.log(100) / math.log(3))
    _report(
        "criterion 8 (prime-power sum drift + sieve density)",
        ok and K <= 10,
        f"c_hat={c_hat:.6f}, drifts={ {X: round(d, 5) for X, d in drifts.items()} }, "
        f"survivor count {count}, K={K:.3f} <= 10",
    )


def test_criterion_9_cosine_weight_bound():
    rng = random.Random(109)
    worst = 0.0
    violations = 0
    for _ in range(10_000):
        A = IntSet(rng.sample(range(2, 300), rng.randint(1, 12)))
        k = rng.randint(1, 5)
        h = rng.randint(-1000, 1000)
        exponent = 0.0
        for n in A:
            hn = (k * h) % n
            hn = min(hn, n - hn)
            exponent += (hn / n) ** 2
        excess = cosine_weight(A, k, h) - math.exp(-exponent)
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1
    _report(
        "criterion 9 (cosine weight vs exponential bound, 10^4 triples)",
        violations == 0,
        f"{violations} violations beyond 1e-12 slack, worst excess {worst:.2e}",
    )
