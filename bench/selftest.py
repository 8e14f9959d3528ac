"""Self-test of the benchmark, at reduced input sizes.

    python3 bench/selftest.py

For every workload in BENCHMARK.json it makes a smoke run untraced and
traced, and asserts that the run is correct, that every named metric is
emitted with its unit and a finite value, and that both runs give the same
output digest.  It then feeds deliberately corrupted results to the oracles
and asserts that each is reported as wrong, and checks that the benchmark
refuses to run without the egyfrac sources.  Exits 0 when all pass.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import run
import workloads
from oracles import Wrong

SEED = 7


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_metrics(result: dict, spec: list[dict], where: str) -> None:
    names = [m["name"] for m in spec]
    assert sorted(result["metrics"]) == sorted(names), f"{where}: metrics {sorted(result['metrics'])}"
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], f"{where}: {m['name']} has unit {got['unit']}"
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), f"{where}: {m['name']}"


def smoke_runs(spec: dict) -> None:
    for w in (x["name"] for x in spec["workloads"]):
        digests = []
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench("--workload", w, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, f"{w} trace {trace}: exit {proc.returncode}\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, (w, result)
            check_metrics(result, metrics, f"{w} trace {trace}")
            if trace == 0:
                assert all(v["value"] > 0 for v in result["metrics"].values()), f"{w}: a zero end-to-end metric"
            record = json.loads((run.OUT / f"{w}-seed{SEED}-trace{trace}-smoke.json").read_text())
            digests.append(record["digest"])
        assert digests[0] == digests[1], f"{w}: traced and untraced outputs differ"
        print(f"selftest: {w}: smoke runs correct, every metric emitted with its unit")


def first(ops, name: str):
    return next(op for op in ops if op.name == name)


def expect_wrong(op, corrupt, what: str) -> None:
    result = op.call()
    op.check(result)  # the genuine result passes
    try:
        op.check(corrupt(result))
    except Wrong:
        print(f"selftest: corrupted {what} reported as wrong")
        return
    raise AssertionError(f"corrupted {what} was not reported as wrong")


def corrupted_results() -> None:
    e = run.import_egyfrac()
    built = {}
    for w in ("circle", "search", "exact"):
        t = e.build_table(workloads.TABLE_BOUND[w])
        built[w] = workloads.build(w, SEED, e, t, run.OUT / "work" / f"selftest-{w}", smoke=True)
    circle, search, exact = built["circle"], built["search"], built["exact"]

    expect_wrong(first(circle, "fourier.fourier_count"), lambda r: (r[0], r[1] + 1), "fourier_count count")
    expect_wrong(first(circle, "fourier.arc_classify"),
                 lambda d: dataclasses.replace(d, rounded=d.rounded + 1), "arc_classify count")
    # the tour's target is a sum of a subset, so this search finds a witness
    expect_wrong(first(search[-9:], "solver.find_subset.dfs_bnb"),
                 lambda r: dataclasses.replace(r, witness=e.IntSet(list(r.witness)[1:])), "solver witness")
    expect_wrong(first(search, "pomerance.verify_solution_free"), lambda free: not free, "Pomerance verdict")
    expect_wrong(first(exact, "rational.recip_sum"), lambda r: r + Fraction(1, 10**30), "recip_sum")
    expect_wrong(first(exact, "pruning.prune_to_window"),
                 lambda tr: dataclasses.replace(tr, r_final=tr.r_final - 1), "prune_to_window sum")

    cli = first(circle, "cli.fourier")
    out = cli.call()
    cli.check(out)
    path = out.files[0]
    payload = json.loads(path.read_text())
    payload["rounded"] += 1
    path.write_text(json.dumps(payload))
    try:
        cli.check(out)
    except Wrong:
        print("selftest: corrupted egyfrac fourier output reported as wrong")
    else:
        raise AssertionError("corrupted egyfrac fourier output was not reported as wrong")


def refuses_without_sources(spec: dict) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    w = spec["workloads"][0]["name"]
    proc = bench("--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    print("selftest: without src/egyfrac the benchmark exits non-zero and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    smoke_runs(spec)
    corrupted_results()
    refuses_without_sources(spec)
    print("selftest: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
