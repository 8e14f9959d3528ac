"""Batch command-line surface for reproducible experiments.

Subcommands: solve, fourier, decompose, and experiment (mertens, sieve,
pomerance, lambda, prune-demo).  Set files are newline-delimited decimal
integers or a JSON array.  All JSON output is UTF-8 with sorted keys and
CSV output is RFC 4180, so identical runs produce byte-identical
artifacts.  The environment variable EGYFRAC_OUT_DIR overrides the
output root for experiment artifacts.  Every command runs on one thread;
fourier still accepts --threads T, a positive integer, and ignores it.

Exit codes: 0 success / witness found, 1 exhausted with no witness,
2 node budget exceeded, 3 resource limits or a refused float count,
64 unusable input: a usage error, an unparsable set file or value, an
unknown experiment, or an output path that cannot be written.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

from .errors import (
    DomainError,
    InconclusiveError,
    InfeasibleError,
    NumericalInstabilityError,
    ResourceLimitError,
)
from .rational import IntSet, format_rational, parse_rational, recip_sum
from .sieve import build_table
from .decomposition import build_decomposition
from .filters import has_divisor_pair, mertens_q_sum, omega_in_range, passes_smoothness, sieve_survivors
from .solver import SolverConfig, SolverStatus, Strategy, count_integral, find_subset, lambda_exact
from .fourier import arc_classify
from .pruning import prune_to_window
from .pomerance import _members, pomerance_set, verify_solution_free

EXIT_FOUND = 0
EXIT_NONE = 1
EXIT_BUDGET = 2
EXIT_RESOURCE = 3
EXIT_USAGE = 64


class _UsageError(Exception):
    """The command line does not parse."""


class _Parser(argparse.ArgumentParser):
    # argparse would print usage and exit 2, the budget code; raise instead
    # so that main() maps the error like any other
    def error(self, message):
        raise _UsageError(message)


# The one exception -> exit code table, most specific class first.  main()
# applies it around parsing and dispatch; any other exception is a bug and
# surfaces as a traceback.
_EXIT_CODES: tuple[tuple[type[Exception], int], ...] = (
    (_UsageError, EXIT_USAGE),
    (ResourceLimitError, EXIT_RESOURCE),
    (InconclusiveError, EXIT_RESOURCE),
    (NumericalInstabilityError, EXIT_RESOURCE),
    (ValueError, EXIT_USAGE),  # DomainError, RangeError, unparsable text or JSON
    (OSError, EXIT_USAGE),  # unreadable set file, unwritable output path
)


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_set(path: str) -> IntSet:
    return IntSet.parse(Path(path).read_bytes().decode("utf-8"))


def _csv_text(rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    A = _load_set(args.set_file)
    target = parse_rational(args.target)
    cfg = SolverConfig(
        strategy=Strategy(args.strategy),
        node_budget=args.budget,
        deterministic=not args.non_deterministic,
    )
    result = find_subset(A, target, cfg)
    _emit(_dump_json(result.to_json_dict()), args.out)
    return {
        SolverStatus.FOUND: EXIT_FOUND,
        SolverStatus.EXHAUSTED_NONE: EXIT_NONE,
        SolverStatus.BUDGET_EXCEEDED: EXIT_BUDGET,
    }[result.status]


def cmd_fourier(args) -> int:
    A = _load_set(args.set_file)
    width = args.arc_width
    if width is None:
        width = (min(A) / 2) if len(A) else 1.0
    diag = arc_classify(A, args.k, width)
    exact = count_integral(A, args.k)
    payload = diag.to_json_dict()
    payload["count_integral"] = exact
    payload["consistent"] = diag.rounded == exact
    _emit(_dump_json(payload), args.out)
    return EXIT_FOUND


def cmd_decompose(args) -> int:
    A = _load_set(args.set_file)
    dec = build_decomposition(A, build_table(max([2, *A])))
    _emit(_dump_json(dec.to_json_dict()), args.out)
    return EXIT_FOUND


# Each experiment returns its artifact as (file name, text, manifest
# parameters, input-digest source); cmd_experiment writes it.


def _experiment_mertens(args):
    t = build_table(max(args.X, 2))
    value = mertens_q_sum(args.X, t)
    lnln = math.log(math.log(args.X)) if args.X >= 3 else None
    payload = {
        "X": args.X,
        "q_sum": format_rational(value),
        "q_sum_float": float(value),
        "ln_ln_X": lnln,
        "excess": float(value) - lnln if lnln is not None else None,
    }
    return f"mertens_{args.X}.json", _dump_json(payload), {"X": args.X}, str(args.X)


def _experiment_sieve(args):
    if not 1 < args.y < args.z:
        raise DomainError("sieve experiment needs 1 < y < z")
    t = build_table(2 * args.N)
    survivors = sieve_survivors(args.N, 2 * args.N - 1, args.y, args.z, t)
    count = len(survivors)
    ratio = count / args.N
    bound = math.log(args.y) / math.log(args.z)
    payload = {
        "N": args.N,
        "y": args.y,
        "z": args.z,
        "X_count": count,
        "ratio": ratio,
        "bound": bound,
        "K": ratio / bound,
    }
    params = {"N": args.N, "y": args.y, "z": args.z}
    return (f"sieve_{args.N}_{args.y}_{args.z}.json", _dump_json(payload), params,
            f"{args.N},{args.y},{args.z}")


def _largest_verified_n(N_max: int, C: float, t, budget: int) -> int:
    """Largest N <= N_max whose qualifying set verifies solution-free.

    Sets only grow with N and a solution persists in every superset, so
    the predicate is monotone: N_max is tested first, then a binary search
    runs below it.  The set at N is a prefix of the set at N_max.
    """
    members = _members(N_max, C, t).elements

    def free(N: int) -> bool:
        return verify_solution_free(members[: bisect_right(members, N)], budget)

    if free(N_max):
        return N_max
    lo, hi, best = 2, N_max - 1, 0
    while lo <= hi:
        mid = (lo + hi) // 2
        if free(mid):
            best = mid
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def _experiment_pomerance(args):
    if args.N < 2:
        raise DomainError(f"--N must be at least 2, got {args.N}")
    if args.step is not None and args.step < 1:
        raise DomainError(f"--step must be at least 1, got {args.step}")
    t = build_table(args.N)
    if args.sweep_C:
        cs = [float(c) for c in args.sweep_C.split(",")]
        rows = [["C", "largest_verified_N", "size", "recip_float", "recip_exact"]]
        for C in cs:
            best = _largest_verified_n(args.N, C, t, args.budget)
            if best >= 2:
                rep = pomerance_set(best, C, t)
                rows.append([C, best, len(rep.members), float(rep.recip), format_rational(rep.recip)])
            else:
                rows.append([C, 0, 0, 0.0, "0/1"])
        name = f"pomerance_sweep_{args.N}.csv"
        params = {"N": args.N, "sweep_C": args.sweep_C, "budget": args.budget}
    else:
        step = args.step or args.N
        rows = [["N", "C", "size", "recip_float", "recip_exact", "verified"]]
        for N in range(step, args.N + 1, step):
            rep = pomerance_set(N, args.C, t)
            free = verify_solution_free(rep.members, args.budget)
            rows.append([N, args.C, len(rep.members), float(rep.recip), format_rational(rep.recip), free])
        name = f"pomerance_{args.N}_{args.C}.csv"
        params = {"N": args.N, "C": args.C, "step": step, "budget": args.budget}
    return name, _csv_text(rows), params, repr(sorted(params.items()))


def _experiment_lambda(args):
    if args.max < 2:
        raise DomainError(f"--max must be at least 2, got {args.max}")
    rows = [["N", "value_exact", "value_float", "witness"]]
    for N in range(2, args.max + 1):
        value, witness = lambda_exact(N, node_budget=args.budget)
        rows.append([N, format_rational(value), float(value), " ".join(map(str, witness))])
    return f"lambda_{args.max}.csv", _csv_text(rows), {"max": args.max}, str(args.max)


def _experiment_prune_demo(args):
    """Filter a range, then cascade window prunes and arc diagnostics.

    For each admissible denominator d the current pool is pruned into the
    window [2/d - 1/lo, 2/d) and handed to the arc diagnostics; a stage they
    refuse is recorded as skipped.
    """
    if args.y <= 0:
        raise DomainError(f"--y must be positive, got {args.y}")
    # a missing omega bound leaves that side open
    omega_bounded = args.omega_lo is not None or args.omega_hi is not None
    omega_lo = -math.inf if args.omega_lo is None else args.omega_lo
    omega_hi = math.inf if args.omega_hi is None else args.omega_hi
    if omega_lo > omega_hi:
        raise DomainError(f"--omega-lo {omega_lo} exceeds --omega-hi {omega_hi}")
    theta = parse_rational(args.theta)
    if theta < 0:
        raise DomainError(f"--theta must be >= 0, got {args.theta}")
    t = build_table(max(args.hi, 2))
    pool = []
    for n in range(args.lo, args.hi + 1):
        if not has_divisor_pair(n, args.y, args.z):
            continue
        if args.smooth_bound is not None and not passes_smoothness(n, args.smooth_bound, t):
            continue
        if omega_bounded and not omega_in_range(n, omega_lo, omega_hi, t):
            continue
        pool.append(n)
    stages = []
    current = IntSet(pool)
    # the pool's exact reciprocal sum, carried from each pruned stage's r_final
    mass = recip_sum(current)
    ds = list(range(math.ceil(args.y), max(math.ceil(args.y), math.floor(args.z / 4)) + 1))
    for d in ds:
        alpha = Fraction(2, d)
        stage: dict = {"d": d, "alpha": format_rational(alpha), "input_size": len(current)}
        if mass < alpha:
            stage["outcome"] = "skipped: pool mass below target"
            stages.append(stage)
            continue
        try:
            trace = prune_to_window(current, alpha, theta, args.lo, t)
        except (DomainError, InfeasibleError) as exc:
            stage["outcome"] = f"infeasible: {exc}"
            stages.append(stage)
            break
        current, mass = trace.final, trace.r_final
        stage["outcome"] = "pruned"
        stage["trace"] = trace.to_json_dict()
        try:
            diag = arc_classify(current, d, args.lo / 2)
        except (NumericalInstabilityError, ResourceLimitError) as exc:
            stage["fourier"] = f"skipped: {exc}"
        else:
            stage["fourier"] = {
                "rounded": diag.rounded,
                "consistent": diag.rounded == count_integral(current, d),
                "minor_weight_sum": diag.minor_weight_sum,
            }
        stages.append(stage)
    params = {"lo": args.lo, "hi": args.hi, "y": args.y, "z": args.z, "theta": args.theta}
    payload = {**params, "pool_size": len(pool), "stages": stages}
    return (f"prune_demo_{args.lo}_{args.hi}.json", _dump_json(payload), params,
            f"{args.lo},{args.hi},{args.y},{args.z},{args.theta}")


_EXPERIMENTS = {
    "mertens": _experiment_mertens,
    "sieve": _experiment_sieve,
    "pomerance": _experiment_pomerance,
    "lambda": _experiment_lambda,
    "prune-demo": _experiment_prune_demo,
}


def cmd_experiment(args) -> int:
    root = Path(os.environ.get("EGYFRAC_OUT_DIR") or args.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    name, text, params, digest_source = _EXPERIMENTS[args.name](args)
    manifest = {
        "command": f"experiment {args.name}",
        "parameters": params,
        "input_digest": hashlib.sha256(digest_source.encode()).hexdigest(),
        "output_path": name,
    }
    (root / name).write_text(text, encoding="utf-8")
    (root / (name + ".manifest.json")).write_text(_dump_json(manifest), encoding="utf-8")
    print(f"wrote {root / name}")
    return EXIT_FOUND


# ---------------------------------------------------------------------------
# argument parsing


def _finite_float(text: str) -> float:
    # --y and --z reach ceil, floor and log, which infinities and NaN break;
    # C, the arc width and the smoothness and omega bounds are compared, and
    # every comparison with NaN is false, so a NaN would silently empty the
    # set or the pool; the arc width is also written to JSON, which has no inf
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _positive_int(text: str) -> int:
    # fourier --threads does nothing, but older command lines pass it, and it
    # is still refused below 1
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return value


def _finite_float_list(text: str) -> str:
    # checked entry by entry, but kept as given: the manifest records the text
    for entry in text.split(","):
        _finite_float(entry)
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="egyfrac", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="search a set file for a subset with a given reciprocal sum")
    p.add_argument("set_file")
    p.add_argument("--target", required=True, help='target rational, e.g. "1/1"')
    p.add_argument("--strategy", default="auto", choices=[s.value for s in Strategy])
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--non-deterministic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("fourier", help="orthogonality count and arc diagnostics for a set file")
    p.add_argument("set_file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--arc-width", type=_finite_float, default=None, help="major-arc radius K (default min(A)/2)")
    p.add_argument("--out")
    p.add_argument("--threads", type=_positive_int, default=1, help="accepted and ignored: the sum runs on one thread")
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("decompose", help="dump the prime-power class structure of a set file")
    p.add_argument("set_file")
    p.add_argument("--out")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("experiment", help="run a named batch experiment")
    p.add_argument("name", choices=_EXPERIMENTS)
    p.add_argument("--out-dir", default=".")
    p.add_argument("--X", type=int, default=1000)
    p.add_argument("--N", type=int, default=1000)
    p.add_argument("--y", type=_finite_float, default=3.0)
    p.add_argument("--z", type=_finite_float, default=100.0)
    p.add_argument("--C", type=_finite_float, default=1.0)
    p.add_argument("--sweep-C", type=_finite_float_list, default=None, help='comma list of C values, e.g. "0.5,1,2"')
    p.add_argument("--step", type=int, default=None)
    p.add_argument("--budget", type=int, default=10_000_000)
    p.add_argument("--max", type=int, default=10)
    p.add_argument("--lo", type=int, default=4)
    p.add_argument("--hi", type=int, default=200)
    p.add_argument("--theta", default="0")
    p.add_argument("--smooth-bound", type=_finite_float, default=None)
    p.add_argument("--omega-lo", type=_finite_float, default=None)
    p.add_argument("--omega-hi", type=_finite_float, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        print(f"egyfrac: error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
