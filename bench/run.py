"""egyfrac benchmark: run one seeded workload and print its metrics.

    python3 bench/run.py --workload circle --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
src/ directory.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics named in BENCHMARK.json, measured
untraced; with --trace 1 they are its per-layer metrics, from spans
recorded around every call into a layer.  A record of the run (host,
versions, per-layer seconds, peak MB and calls, output digest, spans) is
written under .bench_results/.  Any output that its oracle contradicts
makes the run print correct=false and exit 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import oracles
import workloads
from tracing import Span, layer_figures
from workloads import FAILED, UNRESOLVED

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_results"
LAYERS = ["sieve", "rational", "decomposition", "filters", "solver", "fourier", "pruning", "pomerance", "cli"]
MIN_ITERATIONS = 3
SETUP_REPEATS = 15
# per-layer rates: count / time spent in the operations that produced the count
RATES = {"fourier.terms_per_s": "fourier.terms", "solver.nodes_per_s": "solver.nodes",
         "pruning.removed_per_s": "pruning.removed"}

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import egyfrac
egyfrac.build_table(int(sys.argv[2]))
print(time.perf_counter() - start)
"""


def host_speed() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a slow change."""
    start = time.perf_counter()
    total = 0
    for i in range(2_000_000):
        total += i * i
    return time.perf_counter() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def time_setup(bound: int) -> float:
    """Seconds for `import egyfrac` plus build_table(bound) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(bound)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout)


def call(op):
    # the traceback is dropped: its frames would keep the iteration's outputs alive until a full GC
    try:
        result = op.call()
    except op.refusals as exc:
        return UNRESOLVED, exc.with_traceback(None)
    except Exception as exc:  # one operation crashing is a failed operation, not a benchmark crash
        return FAILED, exc.with_traceback(None)
    return op.status(result), result


def iterate(ops, index: int, spans: list | None = None, peaks: dict | None = None):
    """Run every operation once; returns (seconds per operation, outcomes)."""
    outcomes, seconds = [], []
    root = None
    if spans is not None:
        root = len(spans)
        spans.append(Span("bench.iteration", time.perf_counter(), 0.0, None, str(index)))
    for i, op in enumerate(ops):
        if peaks is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        s = time.perf_counter()
        outcomes.append(call(op))
        e = time.perf_counter()
        seconds.append(e - s)
        if spans is not None:
            spans.append(Span(op.name, s, e, root, f"{index}:{i}"))
        if peaks is not None:
            peaks[op.layer] = max(peaks.get(op.layer, 0), tracemalloc.get_traced_memory()[1] - base)
    if spans is not None:
        spans[root].end = time.perf_counter()
    return seconds, outcomes


def fastest(iterations: list[list[float]]) -> float:
    """Sum over operations of each one's fastest time in the run.

    Contention from other tenants of the host only ever adds time, and it
    comes and goes within seconds, so the fastest of an operation's repeats
    is its steadiest estimate; the sum is the time of one uncontended pass.
    """
    return sum(min(times) for times in zip(*iterations))


def summary(op, status: str, value):
    if isinstance(value, BaseException):
        return [status, type(value).__name__]
    if status == FAILED:
        return [status, getattr(value, "code", None)]
    return [status, op.summary(value)]


def digest(ops, outcomes) -> str:
    text = json.dumps([summary(op, s, v) for op, (s, v) in zip(ops, outcomes)], sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def check(ops, outcomes) -> list[str]:
    errors = []
    for op, (status, value) in zip(ops, outcomes):
        if status == FAILED:
            continue
        try:
            op.check(value)
        except oracles.Wrong as exc:
            errors.append(f"{op.name}: {exc}")
        except (KeyError, ValueError, TypeError, OSError) as exc:  # malformed output
            errors.append(f"{op.name}: unreadable output: {exc!r}")
    return errors


def op_counts(op, status: str, value) -> dict:
    out = {f"{op.layer}.calls": 1}
    if status == FAILED:
        out[f"{op.layer}.failed"] = 1
    if not isinstance(value, BaseException) or status == UNRESOLVED:
        out.update(op.counts(value))
    return out


def total(per_op: list[dict]) -> dict:
    totals: dict = Counter()
    for counts in per_op:
        for key, v in counts.items():
            totals[key] = max(totals[key], v) if key.endswith("_max") else totals[key] + v
    return dict(totals)


class Run:
    """Timed iterations of one workload, with the first one checked by oracles.

    Only what the metrics need is kept of the first iteration's outputs
    (statuses and counts), so no output outlives the iteration after it.
    """

    def __init__(self, ops, bound: int):
        self.ops = ops
        self.bound = bound
        self.setup_s: list[float] = []
        self.iterations = 0
        self.digest = None
        self.statuses: list[str] = []
        self.counts: list[dict] = []
        self.failures: list[str] = []
        self.errors: list[str] = []

    def judge(self, outcomes) -> None:
        d = digest(self.ops, outcomes)
        if self.digest is None:
            self.digest = d
            self.errors += check(self.ops, outcomes)
            self.statuses = [s for s, _ in outcomes]
            self.counts = [op_counts(op, s, v) for op, (s, v) in zip(self.ops, outcomes)]
            self.failures = [f"{op.name}: {v!r}" for op, (s, v) in zip(self.ops, outcomes) if s == FAILED]
        elif d != self.digest:
            self.errors.append(f"iteration {self.iterations}: outputs differ from the first iteration")
        self.iterations += 1

    def repeat(self, seconds: float, spans: list | None = None) -> tuple[list, list]:
        """Iterate until `seconds` of operation time have accumulated.

        With `spans`, traced and untraced iterations alternate, so both see
        the same host conditions.  Returns the per-operation seconds of the
        untraced and of the traced iterations.
        """
        plain: list[list[float]] = []
        traced: list[list[float]] = []
        spent = 0.0
        while spent < seconds or len(plain) < MIN_ITERATIONS or (spans is not None and len(traced) < MIN_ITERATIONS):
            if len(self.setup_s) < SETUP_REPEATS:  # spread over the run, to sample its host conditions
                self.setup_s.append(time_setup(self.bound))
            trace_this = spans is not None and len(traced) < len(plain)
            times, outcomes = iterate(self.ops, len(traced), spans if trace_this else None)
            (traced if trace_this else plain).append(times)
            spent += sum(times)
            self.judge(outcomes)
            del outcomes  # not alive during the next iteration
        return plain, traced

    def memory_pass(self) -> dict:
        peaks: dict = {}
        tracemalloc.start()
        try:
            _, outcomes = iterate(self.ops, 0, peaks=peaks)
        finally:
            tracemalloc.stop()
        self.judge(outcomes)
        return {layer: peak / 2**20 for layer, peak in peaks.items()}


def layer_metrics(run: Run, spans, traced, untraced, peaks) -> tuple[dict, dict]:
    figures = layer_figures(spans, LAYERS)
    values = total(run.counts)
    for layer, fig in figures.items():
        for key in ("busy_s", "self_s", "calls", "call_p50_ms", "call_p90_ms"):
            values[f"{layer}.{key}"] = fig[key]
        values[f"{layer}.peak_mb"] = peaks.get(layer, 0.0)
    values["cli.commands"] = values["cli.calls"]
    seconds = [min(times) for times in zip(*traced)]
    for rate, key in RATES.items():
        work = sum(c.get(key, 0) for c in run.counts)
        busy = sum(t for c, t in zip(run.counts, seconds) if c.get(key, 0))
        values[rate] = work / busy if busy else 0.0
    values["trace.overhead_s"] = fastest(traced) - fastest(untraced)
    record = {layer: {"seconds": fig["busy_s"], "self_s": fig["self_s"], "peak_mb": peaks.get(layer, 0.0),
                      "calls": fig["calls"], "call_samples": fig["samples"]} for layer, fig in figures.items()}
    return values, record


def select(values: dict, metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        name = m["name"]
        value = values.get(name, 0) if m["unit"] == "count" else values[name]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="reduced input sizes, for the self-test")
    return p.parse_args(argv)


def import_egyfrac():
    if not (SRC / "egyfrac" / "__init__.py").is_file():
        raise SystemExit(f"bench: no egyfrac sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import egyfrac
    import egyfrac.cli  # noqa: F401  (the CLI is driven in-process)

    if Path(egyfrac.__file__).resolve().parent != SRC / "egyfrac":
        raise SystemExit(f"bench: imported egyfrac from {egyfrac.__file__}, not from {SRC}")
    return egyfrac


def main(argv=None) -> int:
    args = parse_args(argv)
    speed_start = host_speed()
    e = import_egyfrac()
    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    os.environ.pop("EGYFRAC_OUT_DIR", None)  # the CLI must write inside the work dir
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    workdir = OUT / "work" / tag
    bound = workloads.TABLE_BOUND[args.workload]

    t = e.build_table(bound)
    ops = workloads.build(args.workload, args.seed, e, t, workdir, smoke=args.smoke)

    run = Run(ops, bound)
    record: dict = {}
    if args.trace:
        spans: list[Span] = []
        untraced, traced = run.repeat(args.seconds, spans)
        peaks = run.memory_pass()
        values, record["layers"] = layer_metrics(run, spans, traced, untraced, peaks)
        metrics = select(values, spec["per_layer"])
        record["trace_overhead_s"] = values["trace.overhead_s"]
        (OUT / f"{tag}.spans.json").write_text(json.dumps([vars(s) for s in spans]), encoding="utf-8")
    else:
        untraced, _ = run.repeat(args.seconds)
        values = {
            "wall_s": fastest(untraced),
            "setup_s": statistics.median(run.setup_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = select(values, spec["end_to_end"])
    statuses = Counter(run.statuses)
    attempted = len(ops) * run.iterations
    failed = statuses[FAILED] * run.iterations
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "host_speed_s": {"start": speed_start, "end": host_speed()},
        "setup_s": run.setup_s, "iteration_s": [sum(times) for times in untraced], "operations": len(ops),
        "outcomes": dict(statuses), "digest": run.digest, "errors": run.errors, "metrics": metrics,
        "failures": run.failures,
    })
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")

    for err in run.errors:
        print(f"bench: WRONG OUTPUT: {err}", file=sys.stderr)
    print(f"bench: {args.workload} seed {args.seed}: {run.iterations} iterations of {len(ops)} operations, "
          f"outcomes {dict(statuses)}, digest {run.digest[:16]}", file=sys.stderr)
    correct = not run.errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
