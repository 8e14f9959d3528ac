"""Seeded workloads: each turns a seed into a list of operations.

An operation is one call from the benchmark into a public function of
egyfrac, or one in-process CLI command.  It names the layer it calls (a
module of src/egyfrac), and carries its own oracle check, an exact summary
of its output for the run digest, and the per-layer counts it contributes.
The program sees only the generated inputs; CLI commands get set files
written while the workload is built.

circle  the orthogonality sum: many small-lcm sets (per-call overhead), one
        large-lcm arc classification (vector work and memory), one count the
        float sum must refuse, and `egyfrac fourier`.
search  exact subset search: dfs_bnb exhaustion proofs, meet in the middle,
        residue DP, the Pomerance verification sweep, `experiment lambda`
        and `egyfrac solve`.
exact   big-denominator rational sums, Mertens sums, the sieve, pruning,
        decomposition, `experiment mertens` and `experiment prune-demo`.

Every workload ends with a small tour that calls each layer once, so that
every per-layer metric is measured on every workload.

known-failures is not a benchmark workload: it runs the inputs on which
the program is known to fail or to return a wrong count, so the failures
can be reproduced and counted by hand.
"""
from __future__ import annotations

import csv
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import oracles as O
from oracles import expect

OK, UNRESOLVED, FAILED = "ok", "unresolved", "failed"

# table bound built in set-up; it covers every element a workload factorizes
TABLE_BOUND = {"circle": 720_720, "search": 10_000, "exact": 2_000_000, "known-failures": 100_000}

DFS_BUDGET = 1_000
POMERANCE_BUDGET = 1_000_000


def _ok(_result) -> str:
    return OK


def _no_counts(_result) -> dict:
    return {}


@dataclass
class Op:
    """One operation: a call into ``layer`` plus how to judge its output.

    ``check`` is given the result, or the exception for a refusal listed in
    ``refusals``; it raises oracles.Wrong on a wrong output.  ``summary``
    returns the exact part of the output that goes into the run digest.
    ``counts`` returns per-layer counts such as {"fourier.terms": ...}.
    """

    layer: str
    func: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    summary: Callable[[Any], Any]
    counts: Callable[[Any], dict] = _no_counts
    status: Callable[[Any], str] = _ok
    refusals: tuple = ()

    @property
    def name(self) -> str:
        return f"{self.layer}.{self.func}"


@dataclass
class CliRun:
    code: int
    stdout: str
    stderr: str
    files: list[Path]  # what the command writes


@dataclass
class Ctx:
    """What building a workload needs: the library, a table and a seeded rng."""

    e: Any  # the egyfrac package
    t: Any  # FactorTable at TABLE_BOUND[workload]
    bound: int
    rng: random.Random
    workdir: Path
    smoke: bool

    def size(self, full: int, smoke: int) -> int:
        return smoke if self.smoke else full


def frac(x: Fraction) -> str:
    # hexadecimal is not subject to the int-to-decimal digit limit
    return f"{x.numerator:x}/{x.denominator:x}"


def divisors(n: int) -> list[int]:
    return [d for d in range(2, n + 1) if n % d == 0]


def lcm_capped_set(rng: random.Random, lo: int, hi: int, max_size: int, cap: int) -> list[int]:
    pool = list(range(lo, hi + 1))
    rng.shuffle(pool)
    elems, L = [], 1
    for n in pool:
        if math.lcm(L, n) <= cap:
            elems.append(n)
            L = math.lcm(L, n)
            if len(elems) == max_size:
                break
    return sorted(elems)


# ---------------------------------------------------------------------------
# operations, one constructor per public function


def fourier_count_op(c: Ctx, A: list[int], k: int) -> Op:
    e = c.e
    L = math.lcm(*A)

    def check(r):
        if isinstance(r, Exception):
            return  # an honest refusal is always allowed
        expect(r[1] == O.count_integral(A, k), f"fourier_count rounded {r[1]} is wrong")

    return Op(
        "fourier", "fourier_count", lambda: e.fourier_count(A, k), check,
        summary=lambda r: type(r).__name__ if isinstance(r, Exception) else r[1],
        counts=lambda r: {"fourier.freqs": L, "fourier.terms": len(A) * L,
                          "fourier.refused": int(isinstance(r, Exception))},
        refusals=(e.NumericalInstabilityError, e.ResourceLimitError),
    )


def arc_classify_op(c: Ctx, A: list[int], k: int, samples: int = 64) -> Op:
    e = c.e
    L = math.lcm(*A)
    K = min(A) / 2
    hs = [c.rng.randrange(1, L // 2) * c.rng.choice((1, -1)) for _ in range(samples)]

    def check(d):
        expect(d.rounded == O.count_integral(A, k), f"arc_classify rounded {d.rounded} is wrong")
        expect(len(d.major_hs) + len(d.minor_hs) == L - 1, "arcs do not cover the nonzero frequencies")
        major = set(d.major_hs)
        for h in hs:
            r = (k * h) % L
            expect((h in major) == (2 * min(r, L - r) <= K), f"frequency {h} is on the wrong arc")
            want = math.prod(abs(math.cos(math.pi * ((k * h) % n) / n)) for n in A)
            expect(abs(d.weights[h] - want) <= 1e-9, f"weight C(A; {h}) is wrong")

    return Op(
        "fourier", "arc_classify", lambda: e.arc_classify(A, k, K), check,
        summary=lambda d: [d.L, d.rounded, len(d.major_hs), len(d.minor_hs)],
        counts=lambda r: {"fourier.freqs": L, "fourier.terms": len(A) * L, "fourier.refused": 0},
        refusals=(e.NumericalInstabilityError, e.ResourceLimitError),
    )


def count_integral_op(c: Ctx, A: list[int], k: int) -> Op:
    L = math.lcm(*A)

    def check(r):
        expect(r == O.count_integral(A, k), f"count_integral {r} is wrong")

    return Op("solver", "count_integral", lambda: c.e.count_integral(A, k), check,
              summary=lambda r: r, counts=lambda r: {"solver.dp_cells": len(A) * L})


def find_subset_op(c: Ctx, A: list[int], target: Fraction, strategy: str, budget: int) -> Op:
    e = c.e
    cfg = e.SolverConfig(strategy=e.Strategy(strategy), node_budget=budget)
    solutions = O.reachability_solutions if strategy == "residue_dp" else O.subset_solutions
    cells = 0
    if strategy == "residue_dp":
        L = math.lcm(*A)
        cells = len(A) * (int(target * L) + 1)

    def check(r):
        witness = None if r.witness is None else list(r.witness)
        O.check_search(A, target, r.status.value, witness, r.nodes_explored, budget, solutions)

    def counts(r):
        return {"solver.nodes": r.nodes_explored, "solver.dp_cells": cells,
                "solver.found": int(r.status.value == "found"),
                "solver.exhausted": int(r.status.value == "exhausted_none"),
                "solver.budget_exceeded": int(r.status.value == "budget_exceeded")}

    return Op(
        "solver", f"find_subset.{strategy}", lambda: e.find_subset(A, target, cfg), check,
        summary=lambda r: [r.status.value, None if r.witness is None else list(r.witness)],
        counts=counts,
        status=lambda r: UNRESOLVED if r.status.value == "budget_exceeded" else OK,
    )


def recip_sum_op(c: Ctx, A: list[int]) -> Op:
    return Op("rational", "recip_sum", lambda: c.e.recip_sum(A), lambda r: O.check_recip(r, A),
              summary=frac,
              counts=lambda r: {"rational.terms": len(A), "rational.den_bits_max": r.denominator.bit_length()})


def build_table_op(c: Ctx) -> Op:
    e, N = c.e, c.bound
    probes = [c.rng.randrange(2, N + 1) for _ in range(200)] + [N]

    def check(t):
        expect(t.bound == N, "table bound is wrong")
        for n in probes:
            expect(t.spf(n) == O.trial_factorize(n)[0][0], f"spf({n}) is wrong")

    return Op("sieve", "build_table", lambda: e.build_table(N), check,
              summary=lambda t: [t.spf(n) for n in probes], counts=lambda t: {"sieve.entries": N + 1})


def factorize_op(c: Ctx, n: int) -> Op:
    return Op("sieve", "factorize", lambda: c.e.factorize(n, c.t),
              lambda r: expect(r == O.trial_factorize(n), f"factorize({n}) is wrong"),
              summary=lambda r: r)


def build_decomposition_op(c: Ctx, A: list[int]) -> Op:
    def check(d):
        want = O.ppower_classes(A)
        expect({q: list(m) for q, m in d.parts.items()} == want, "class decomposition is wrong")
        expect(list(d.qset) == sorted(want), "qset is wrong")

    return Op("decomposition", "build_decomposition", lambda: c.e.build_decomposition(A, c.t), check,
              summary=lambda d: d.to_json_dict(), counts=lambda d: {"decomposition.classes": len(d.qset)})


def sieve_survivors_op(c: Ctx, lo: int, hi: int, y: float, z: float) -> Op:
    def check(r):
        alive = bytearray([1]) * (hi - lo + 1)
        for p in O.primes_upto(int(z)):
            if p >= y:
                start = -(-lo // p) * p
                alive[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
        expect(list(r) == [lo + i for i, a in enumerate(alive) if a], "sieve survivors are wrong")

    return Op("filters", "sieve_survivors", lambda: c.e.sieve_survivors(lo, hi, y, z, c.t), check,
              summary=lambda r: [len(r), sum(r)], counts=lambda r: {"filters.survivors": len(r)})


def mertens_q_sum_op(c: Ctx, X: int) -> Op:
    pps = O.prime_powers_upto(X)

    def check(r):
        O.check_recip(r, pps)
        drift = float(r) - math.log(math.log(X)) - O.PRIME_POWER_MERTENS
        expect(abs(drift) < 1 / math.log(X), f"Mertens drift {drift} exceeds 1/ln X")

    return Op("filters", "mertens_q_sum", lambda: c.e.mertens_q_sum(X, c.t), check,
              summary=frac, counts=lambda r: {"filters.terms": len(pps)})


def mertens_product_op(c: Ctx, X: int) -> Op:
    ps = O.primes_upto(X)

    def check(r):
        expect(r.numerator * math.prod(p - 1 for p in ps) == r.denominator * math.prod(ps),
               "Mertens product is wrong")
        drift = math.log(r.numerator) - math.log(r.denominator) - math.log(math.log(X)) - O.EULER_GAMMA
        expect(abs(drift) < 1 / math.log(X), f"Mertens product drift {drift} exceeds 1/ln X")

    return Op("filters", "mertens_product", lambda: c.e.mertens_product(X, c.t), check,
              summary=frac, counts=lambda r: {"filters.terms": len(ps)})


def _check_trace(tr, A: list[int]) -> None:
    expect(set(tr.final) | set(tr.removed_elements) == set(A), "final and removed do not make up A")
    expect(len(tr.final) + len(tr.removed_elements) == len(A), "an element is both kept and removed")
    O.check_recip(tr.r_initial, A)
    O.check_recip(tr.r_final, tr.final)


def prune_ppower_op(c: Ctx, A: list[int], theta: Fraction) -> Op:
    def check(tr):
        _check_trace(tr, A)
        for q, members in O.ppower_classes(tr.final).items():
            expect(O.class_mass(q, members) >= theta, f"class of {q} is lighter than theta")
        if tr.removed_elements:
            qsum = sum((Fraction(1, q) for q in O.ppower_classes(A)), Fraction(0))
            expect(tr.r_initial - tr.r_final < theta * qsum, "pruning lost more than theta * sum 1/q")

    return Op("pruning", "prune_ppower", lambda: c.e.prune_ppower(A, theta, c.t), check,
              summary=lambda tr: [list(tr.removed_qs), list(tr.removed_elements)],
              counts=lambda tr: {"pruning.removed": len(tr.removed_elements)})


def prune_to_window_op(c: Ctx, A: list[int], alpha: Fraction, M: int) -> Op:
    def check(tr):
        _check_trace(tr, A)
        expect(alpha - Fraction(1, M) <= tr.r_final < alpha, "final sum is outside [alpha - 1/M, alpha)")

    return Op("pruning", "prune_to_window", lambda: c.e.prune_to_window(A, alpha, 0, M, c.t), check,
              summary=lambda tr: list(tr.removed_elements),
              counts=lambda tr: {"pruning.removed": len(tr.removed_elements)})


def pomerance_set_op(c: Ctx, N: int, C: float, members: list[int]) -> Op:
    def check(rep):
        expect(list(rep.members) == members, f"Pomerance set at N={N} is wrong")
        O.check_recip(rep.recip, members)

    return Op("pomerance", "pomerance_set", lambda: c.e.pomerance_set(N, C, c.t), check,
              summary=lambda rep: list(rep.members),
              counts=lambda rep: {"pomerance.sets": 1, "pomerance.members": len(rep.members)})


def verify_free_op(c: Ctx, members: list[int], budget: int) -> Op:
    return Op("pomerance", "verify_solution_free", lambda: c.e.verify_solution_free(members, budget),
              lambda free: expect(free is True, "a Pomerance set did not verify solution-free"),
              summary=lambda free: free, refusals=(c.e.InconclusiveError,))


# ---------------------------------------------------------------------------
# CLI commands, run in-process through egyfrac.cli.main


def run_cli(e, argv: list[str], files: list[Path]) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = e.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 64
    return CliRun(code, out.getvalue(), err.getvalue(), files)


def _cli_status(r: CliRun) -> str:
    # 0 success, 1 exhausted: answers; 2 budget, 3 resource limit: refusals
    return OK if r.code in (0, 1) else UNRESOLVED if r.code in (2, 3) else FAILED


def _cli_counts(r: CliRun) -> dict:
    written = len(r.stdout.encode()) + len(r.stderr.encode())
    written += sum(f.stat().st_size for f in r.files if f.exists())
    return {"cli.nonzero_exits": int(r.code != 0), "cli.bytes_written": written}


def cli_op(c: Ctx, argv: list[str], outputs: list[str], check: Callable[[CliRun], None],
           summary: Callable[[CliRun], Any]) -> Op:
    """``outputs`` are the files the command writes, relative to the work dir."""
    files = [c.workdir / p for p in outputs]
    return Op("cli", argv[0] if argv[0] != "experiment" else f"experiment.{argv[1]}",
              lambda: run_cli(c.e, argv, files), check, summary=summary,
              counts=_cli_counts, status=_cli_status)


def write_set(c: Ctx, name: str, A: list[int]) -> str:
    path = c.workdir / name
    path.write_text("".join(f"{n}\n" for n in A), encoding="utf-8")
    return str(path)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def cli_fourier_op(c: Ctx, A: list[int], k: int, threads: int) -> Op:
    out = c.workdir / "fourier.json"
    argv = ["fourier", write_set(c, "fourier_set.txt", A), "--k", str(k), "--threads", str(threads),
            "--out", str(out)]

    def check(r):
        expect(r.code == 0, f"egyfrac fourier exited {r.code}")
        d = _read_json(out)
        want = O.count_integral(A, k)
        expect(d["rounded"] == d["count_integral"] == want and d["consistent"], "egyfrac fourier count is wrong")

    return cli_op(c, argv, ["fourier.json"], check,
                  summary=lambda r: [r.code] + [_read_json(out)[key] for key in ("L", "rounded", "count_integral")])


def cli_solve_op(c: Ctx, A: list[int], target: Fraction, budget: int) -> Op:
    out = c.workdir / "solve.json"
    argv = ["solve", write_set(c, "solve_set.txt", A), "--target", f"{target.numerator}/{target.denominator}",
            "--strategy", "dfs_bnb", "--budget", str(budget), "--out", str(out)]

    def check(r):
        d = _read_json(out)
        expect(r.code == {"found": 0, "exhausted_none": 1, "budget_exceeded": 2}[d["status"]],
               f"egyfrac solve exit {r.code} does not match status {d['status']}")
        O.check_search(A, target, d["status"], d["witness"], d["nodes"], budget)

    return cli_op(c, argv, ["solve.json"], check,
                  summary=lambda r: [r.code, _read_json(out)["status"], _read_json(out)["witness"]])


def _experiment(c: Ctx, name: str, params: list[str]) -> list[str]:
    return ["experiment", name, *params, "--out-dir", str(c.workdir)]


def cli_lambda_op(c: Ctx, top: int, brute_upto: int) -> Op:
    name = f"lambda_{top}.csv"

    def check(r):
        expect(r.code == 0, f"experiment lambda exited {r.code}")
        rows = list(csv.reader(io.StringIO((c.workdir / name).read_text(encoding="utf-8"))))[1:]
        expect([int(row[0]) for row in rows] == list(range(2, top + 1)), "lambda rows are missing")
        prev = Fraction(0)
        for N, value, _, witness in rows:
            value, witness = Fraction(value), [int(w) for w in witness.split()]
            O.check_recip(value, witness)
            expect(value >= prev, f"lambda({N}) decreased")
            if int(N) <= brute_upto:
                expect(value == O.solution_free_lambda(int(N)), f"lambda({N}) is wrong")
            prev = value

    return cli_op(c, _experiment(c, "lambda", ["--max", str(top)]), [name, name + ".manifest.json"], check,
                  summary=lambda r: [r.code, (c.workdir / name).read_text(encoding="utf-8")])


def cli_mertens_op(c: Ctx, X: int) -> Op:
    name = f"mertens_{X}.json"
    pps = O.prime_powers_upto(X)

    def check(r):
        expect(r.code == 0, f"experiment mertens exited {r.code}")
        O.check_recip(Fraction(_read_json(c.workdir / name)["q_sum"]), pps)

    return cli_op(c, _experiment(c, "mertens", ["--X", str(X)]), [name, name + ".manifest.json"], check,
                  summary=lambda r: [r.code, _read_json(c.workdir / name)["q_sum"]]
                  if r.code == 0 else [r.code])


def cli_prune_demo_op(c: Ctx, hi: int) -> Op:
    lo = 4
    name = f"prune_demo_{lo}_{hi}.json"

    def stages():
        return _read_json(c.workdir / name)["stages"]

    def check(r):
        expect(r.code == 0, f"experiment prune-demo exited {r.code}")
        for st in stages():
            if st["outcome"] != "pruned":
                continue
            alpha, tr = Fraction(st["alpha"]), st["trace"]
            final = tr["final"]
            expect(alpha - Fraction(1, lo) <= Fraction(tr["r_final"]) < alpha, "prune-demo window missed")
            O.check_recip(Fraction(tr["r_final"]), final)
            if isinstance(st["fourier"], dict):
                expect(st["fourier"]["rounded"] == O.count_integral(final, st["d"]),
                       "prune-demo arc count is wrong")

    return cli_op(c, _experiment(c, "prune-demo", ["--lo", str(lo), "--hi", str(hi)]),
                  [name, name + ".manifest.json"], check,
                  summary=lambda r: [r.code] + [[s["d"], s["outcome"], s.get("trace", {}).get("final")]
                                                for s in stages()])


# ---------------------------------------------------------------------------
# workloads


def tour(c: Ctx) -> list[Op]:
    """One small call into every layer except cli, which every workload runs."""
    rng = c.rng
    S = sorted(rng.sample([d for d in divisors(5040) if d <= 40], 10))
    target = sum((Fraction(1, n) for n in rng.sample(S, 4)), Fraction(0))
    lo = rng.randrange(2, c.bound - 5000)
    return [
        build_table_op(c),
        factorize_op(c, rng.randrange(2, c.bound + 1)),
        recip_sum_op(c, S),
        build_decomposition_op(c, S),
        sieve_survivors_op(c, lo, lo + 5000, 3, 30),
        find_subset_op(c, S, target, "dfs_bnb", DFS_BUDGET),
        fourier_count_op(c, S, 1),
        prune_ppower_op(c, S, Fraction(1, 4)),
        pomerance_set_op(c, 300, 1.0, O.pomerance_members(300, 1.0)),
    ]


def circle(c: Ctx) -> list[Op]:
    rng = c.rng
    ops = []
    for _ in range(c.size(120, 6)):
        A = lcm_capped_set(rng, 2, 60, 16, 5000)
        k = rng.choice((1, 2, 3))
        ops += [fourier_count_op(c, A, k), count_integral_op(c, A, k)]
    d27 = divisors(27720)
    # the 13 smallest divisors of 27720 already have lcm 27720
    ops.append(arc_classify_op(c, d27[: c.size(13, 9)], 1))
    # about 2^71 / 10080 subsets, beyond float precision: the sum must refuse or be exact
    ops.append(fourier_count_op(c, divisors(10080), 1))
    ops.append(cli_fourier_op(c, d27[: c.size(12, 8)], 1, threads=2))
    return ops + tour(c)


def search(c: Ctx) -> list[Op]:
    rng = c.rng
    # at this size, pool and budget about 3/4 of the target-1/3 calls run out of budget and the
    # rest find or disprove, so the node total varies little by seed
    smooth = [n for n in range(2, 1001) if O.largest_prime(n) <= 11]
    ops = []
    for _ in range(c.size(60, 3)):
        A = sorted(rng.sample(smooth, 32))
        ops += [find_subset_op(c, A, Fraction(1), "dfs_bnb", DFS_BUDGET),
                find_subset_op(c, A, Fraction(1, 3), "dfs_bnb", DFS_BUDGET)]
    for _ in range(c.size(6, 1)):
        ops.append(find_subset_op(c, sorted(rng.sample(smooth, c.size(22, 20))), Fraction(1, 3),
                                  "meet_middle", 10**6))
    d720 = divisors(720720)
    for _ in range(c.size(8, 2)):
        A = sorted(rng.sample(d720, 40))
        ops.append(find_subset_op(c, A, Fraction(1, rng.choice((2, 3, 4, 6))), "residue_dp", 10**6))
    for N in range(250, c.size(2750, 750) + 1, 500):
        members = O.pomerance_members(N, 1.0)
        ops += [pomerance_set_op(c, N, 1.0, members), verify_free_op(c, members, POMERANCE_BUDGET)]
    ops.append(cli_lambda_op(c, c.size(22, 12), brute_upto=c.size(16, 12)))
    ops.append(cli_solve_op(c, sorted(rng.sample(smooth, 32)), Fraction(1, 3), DFS_BUDGET))
    return ops + tour(c)


def exact(c: Ctx) -> list[Op]:
    rng = c.rng
    ops = [recip_sum_op(c, sorted(rng.sample(range(2, 10**5), c.size(8000, 500)))) for _ in range(3)]
    X = rng.randrange(c.size(99_000, 5000), c.size(101_000, 6000))
    ops += [mertens_q_sum_op(c, X), mertens_product_op(c, X)]
    lo = rng.randrange(10**6, 15 * 10**5)
    ops.append(sieve_survivors_op(c, lo, lo + c.size(400_000, 20_000), 3, 100))
    for _ in range(c.size(6, 2)):
        A = sorted(rng.sample(range(1000, 2 * 10**5), c.size(150, 40)))
        # a window that the smallest-first trimmer reaches after exactly `cut` removals, so the
        # work does not depend on the draw; elements >= M = 1000 keep it inside [alpha - 1/M, alpha)
        cut = c.size(20, 5)
        rest = sum((Fraction(1, n) for n in A[cut:]), Fraction(0))
        ops.append(prune_to_window_op(c, A, rest + Fraction(1, 2 * A[cut - 1]), 1000))
    for _ in range(c.size(100, 5)):
        S = sorted(rng.sample(range(2, 400), 30))
        ops += [prune_ppower_op(c, S, Fraction(1, 2)), build_decomposition_op(c, S)]
    ops.append(cli_mertens_op(c, rng.randrange(8000, 9500)))
    ops.append(cli_prune_demo_op(c, c.size(150, 120)))
    return ops + tour(c)


def known_failures(c: Ctx) -> list[Op]:
    """Inputs on which the program fails (or is wrong) at the time of writing."""
    d55 = divisors(55440)
    members = O.pomerance_members(3000, 1.0)
    return [
        # the solver recurses once per element: RecursionError near 1000 elements
        verify_free_op(c, members, POMERANCE_BUDGET),
        # the 4300-digit int-to-str limit makes the CLI exit 64
        cli_mertens_op(c, 100_000),
        # about 2^70 / 55440 subsets: the float sum rounds to a wrong count
        fourier_count_op(c, d55[:70], 1),
    ]


WORKLOADS = {"circle": circle, "search": search, "exact": exact, "known-failures": known_failures}


def build(name: str, seed: int, e, t, workdir: Path, smoke: bool = False) -> list[Op]:
    workdir.mkdir(parents=True, exist_ok=True)
    c = Ctx(e, t, TABLE_BOUND[name], random.Random(f"{name}:{seed}"), workdir, smoke)
    return WORKLOADS[name](c)
