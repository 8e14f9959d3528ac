import argparse
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from egyfrac import build_table, format_rational, has_divisor_pair, mertens_q_sum, parse_rational
import egyfrac.cli
import egyfrac.fourier
import egyfrac.pomerance
from egyfrac.cli import main
from helpers import divisors_above_one, trial_factorize


@pytest.fixture()
def set_file(tmp_path):
    f = tmp_path / "set.txt"
    f.write_text("2\n3\n4\n5\n6\n")
    return f


def test_solve_found(set_file, tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["solve", str(set_file), "--target", "1/1", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload == {"status": "found", "witness": [2, 3, 6], "nodes": payload["nodes"]}
    rc = main(["solve", str(set_file), "--target", "1/1"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [2, 3, 6]


def test_solve_exhausted_and_budget(tmp_path):
    f = tmp_path / "s.txt"
    f.write_text("3\n4\n5\n")
    assert main(["solve", str(f), "--target", "1/1"]) == 1
    g = tmp_path / "g.txt"
    g.write_text("2\n3\n6\n")
    assert main(["solve", str(g), "--target", "1/1", "--budget", "1"]) == 2


def test_solve_accepts_json_set(tmp_path, capsys):
    f = tmp_path / "s.json"
    f.write_text("[6, 3, 2]")
    assert main(["solve", str(f), "--target", "1/1"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [2, 3, 6]


def test_solve_parse_errors(tmp_path, set_file, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\nxyzzy\n")
    assert main(["solve", str(bad), "--target", "1/1"]) == 64
    assert main(["solve", str(set_file), "--target", "one"]) == 64
    assert main(["solve", str(tmp_path / "missing.txt"), "--target", "1/1"]) == 64
    floats = tmp_path / "floats.json"
    floats.write_text("[2.5, 3]")
    assert main(["solve", str(floats), "--target", "1/1"]) == 64
    capsys.readouterr()


def test_fourier_consistent(set_file, capsys):
    rc = main(["fourier", str(set_file), "--k", "1"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["consistent"] is True
    assert payload["rounded"] == payload["count_integral"]
    assert payload["L"] == 60


def test_fourier_writes_arcs_as_runs(tmp_path, capsys):
    # one h a line, the 13 smallest divisors of 27720 wrote some 27,700 lines
    f = tmp_path / "d27720.txt"
    f.write_text("\n".join(map(str, divisors_above_one(27720)[:13])) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") < 100
    payload = json.loads(text)
    assert payload["L"] == 27720 and payload["consistent"] is True
    runs = payload["major_arcs"] + payload["minor_arcs"]
    assert sum(hi - lo + 1 for lo, hi in runs) == 27720 - 1
    assert payload["weights_summary"]["count"] == 27720 - 1


def test_fourier_answers_a_k_past_64_bits(tmp_path, capsys):
    # k * lcm used to pass 2^62 and exit 3; the JSON keeps k as given
    f = tmp_path / "s.txt"
    f.write_text("2\n3\n6\n")
    assert main(["fourier", str(f), "--k", "10000000000000000000"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["k"] == 10**19 and payload["rounded"] == payload["count_integral"] == 4
    assert payload["consistent"] is True


def test_fourier_threads_changes_no_byte(tmp_path):
    # the 16 smallest divisors of 360360 span three chunks of the sum
    f = tmp_path / "d360360.txt"
    f.write_text("\n".join(map(str, divisors_above_one(360360)[:16])) + "\n")
    outs = []
    for extra in ([], ["--threads", "2"]):
        out = tmp_path / f"out{len(outs)}.json"
        assert main(["fourier", str(f), "--k", "1", "--out", str(out), *extra]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_fourier_resource_exit(tmp_path, capsys):
    f = tmp_path / "primes.txt"
    f.write_text("\n".join(map(str, [101, 103, 107, 109, 113, 127])) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 3
    capsys.readouterr()


def test_fourier_refuses_an_lcm_of_thousands_of_digits(tmp_path, capsys):
    # lcm(2..12000) has over 5,000 digits, past what int-to-str conversion allows:
    # the refusal names its size, not the number
    f = tmp_path / "to12000.txt"
    f.write_text("\n".join(map(str, range(2, 12001))) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(r"egyfrac: error: lcm of at least \d+ bits exceeds bound 1000000\n", err), err


def test_fourier_refused_count_exit(tmp_path, capsys):
    f = tmp_path / "divisors.txt"
    f.write_text("\n".join(map(str, divisors_above_one(720720)[:80])) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 3
    assert capsys.readouterr().err.startswith("egyfrac: error:")


def test_solve_residue_dp_past_the_byte_budget_exits_3(tmp_path, capsys):
    # the residue DP's sets on these 431 divisors would pass its byte budget; auto searches by dfs_bnb
    f = tmp_path / "divisors.txt"
    f.write_text("\n".join(map(str, divisors_above_one(7207200))) + "\n")
    assert main(["solve", str(f), "--target", "1", "--strategy", "residue_dp"]) == 3
    assert capsys.readouterr().err.startswith("egyfrac: error:")
    assert main(["solve", str(f), "--target", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == [2, 3, 6]


def test_decompose(set_file, capsys):
    rc = main(["decompose", str(set_file)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["qset"] == [2, 3, 4, 5]
    assert payload["parts"]["4"] == [4]
    assert payload["parts"]["2"] == [2, 6]


def test_experiment_unknown_name(tmp_path):
    assert main(["experiment", "nonsense", "--out-dir", str(tmp_path)]) == 64


def test_experiment_mertens(tmp_path, capsys):
    rc = main(["experiment", "mertens", "--X", "100", "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "mertens_100.json").read_text())
    assert payload["q_sum"].count("/") == 1
    manifest = json.loads((tmp_path / "mertens_100.json.manifest.json").read_text())
    assert manifest["command"] == "experiment mertens"
    capsys.readouterr()


def test_experiment_mertens_past_int_str_limit(tmp_path, capsys):
    # the exact sum at X = 10^4 has a denominator past str(int)'s 4300-digit limit
    rc = main(["experiment", "mertens", "--X", "10000", "--out-dir", str(tmp_path)])
    assert rc == 0
    num, den = json.loads((tmp_path / "mertens_10000.json").read_text())["q_sum"].split("/")
    assert len(den) > 4300
    assert Fraction(int(Decimal(num)), int(Decimal(den))) == mertens_q_sum(10000, build_table(10000))
    capsys.readouterr()


def test_parse_rational_round_trips_mertens_q_sum(tmp_path, capsys):
    # parse_rational used to go through Fraction(str), which refuses more than 4300 digits
    assert main(["experiment", "mertens", "--X", "10000", "--out-dir", str(tmp_path)]) == 0
    text = json.loads((tmp_path / "mertens_10000.json").read_text())["q_sum"]
    value = parse_rational(text)
    assert value == mertens_q_sum(10000, build_table(10000))
    assert format_rational(value) == text
    capsys.readouterr()


def test_experiment_sieve(tmp_path, capsys):
    rc = main(["experiment", "sieve", "--N", "5000", "--y", "3", "--z", "100", "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "sieve_5000_3.0_100.0.json").read_text())
    assert {"X_count", "bound", "ratio", "K"} <= set(payload)
    capsys.readouterr()


def test_experiment_pomerance(tmp_path, capsys):
    rc = main(["experiment", "pomerance", "--N", "60", "--C", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    raw = (tmp_path / "pomerance_60_1.0.csv").read_bytes()
    assert b"\r\n" in raw
    rows = list(csv.reader(raw.decode("utf-8").splitlines()))
    assert rows[0] == ["N", "C", "size", "recip_float", "recip_exact", "verified"]
    assert rows[1][0] == "60" and rows[1][5] == "True"
    capsys.readouterr()


def test_experiment_pomerance_sweep(tmp_path, capsys):
    rc = main(["experiment", "pomerance", "--N", "40", "--sweep-C", "0.5,1", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "pomerance_sweep_40.csv").read_text().splitlines()))
    assert rows[0] == ["C", "largest_verified_N", "size", "recip_float", "recip_exact"]
    by_c = {row[0]: int(row[1]) for row in rows[1:]}
    # C=0.5 admits 2, 3 and 6, whose reciprocals already sum to 1
    assert by_c["0.5"] == 5
    assert by_c["1.0"] == 40
    capsys.readouterr()


def test_experiment_pomerance_sweep_verifies_n_max_once(tmp_path, monkeypatch, capsys):
    # the set at N = 40 verifies, so its row needs one verification and one reciprocal sum
    calls = Counter()
    for name in ("find_subset", "recip_sum"):
        real = getattr(egyfrac.pomerance, name)
        monkeypatch.setattr(egyfrac.pomerance, name,
                            lambda *a, _real=real, _name=name: calls.update([_name]) or _real(*a))
    assert main(["experiment", "pomerance", "--N", "40", "--sweep-C", "1", "--out-dir", str(tmp_path)]) == 0
    assert calls == {"find_subset": 1, "recip_sum": 1}
    capsys.readouterr()


def test_experiment_lambda(tmp_path, capsys):
    rc = main(["experiment", "lambda", "--max", "6", "--out-dir", str(tmp_path)])
    assert rc == 0
    rows = list(csv.reader((tmp_path / "lambda_6.csv").read_text().splitlines()))
    assert rows[0] == ["N", "value_exact", "value_float", "witness"]
    assert [r[0] for r in rows[1:]] == ["2", "3", "4", "5", "6"]
    assert rows[1][1] == "1/2"
    assert rows[4][1] == "77/60" and rows[4][3] == "2 3 4 5"
    capsys.readouterr()


def test_experiment_prune_demo(tmp_path, capsys):
    rc = main(
        ["experiment", "prune-demo", "--lo", "4", "--hi", "60", "--y", "1", "--z", "12", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "prune_demo_4_60.json").read_text())
    assert payload["stages"], payload
    assert payload["stages"][0]["outcome"] == "pruned"
    capsys.readouterr()


def test_experiment_prune_demo_records_refused_stage(tmp_path, monkeypatch, capsys):
    # every pruned stage keeps 42 or more elements, beyond what the float sum
    # can certify, and the huge lcm bound lets each one reach the counter
    monkeypatch.setattr(egyfrac.fourier, "_LCM_BOUND", 10**30)
    rc = main(
        ["experiment", "prune-demo", "--lo", "4", "--hi", "150", "--y", "1", "--z", "12",
         "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "prune_demo_4_150.json").read_text())
    pruned = [st for st in payload["stages"] if st["outcome"] == "pruned"]
    assert pruned
    for st in pruned:
        assert len(st["trace"]["final"]) >= 42
        assert st["fourier"].startswith("skipped: ") and "float error bound" in st["fourier"], st["fourier"]
    capsys.readouterr()


def test_experiment_prune_demo_skips_stages_over_the_memory_budget(tmp_path, monkeypatch, capsys):
    # the three pruned stages (36, 28 and 23 elements) have lcm 151351200, past the lcm
    # bound (their arc diagnostics would take some 7.4 GB): each must be refused before any product
    def kernel_called(*args, **kwargs):
        raise AssertionError("the product kernel ran on an lcm over the bound")

    monkeypatch.setattr(egyfrac.fourier, "_gathered_product", kernel_called)
    rc = main(
        ["experiment", "prune-demo", "--lo", "4", "--hi", "60", "--y", "1", "--z", "12", "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    stages = json.loads((tmp_path / "prune_demo_4_60.json").read_text())["stages"]
    assert [len(st["trace"]["final"]) for st in stages] == [36, 28, 23]
    for st in stages:
        assert st["fourier"] == "skipped: lcm 151351200 exceeds bound 1000000", st["fourier"]
    capsys.readouterr()


def test_experiment_prune_demo_runs_the_diagnostics_on_an_emptied_pool(tmp_path, capsys):
    # stage d = 12 prunes the pool [6] to []: lcm 1, one subset (the empty one) has
    # integral sum; it used to be reported as "skipped: lcm 1 exceeds bound 1000000"
    rc = main(["experiment", "prune-demo", "--lo", "4", "--hi", "6", "--y", "1", "--z", "200",
               "--out-dir", str(tmp_path)])
    assert rc == 0
    stages = json.loads((tmp_path / "prune_demo_4_6.json").read_text())["stages"]
    emptied = [st for st in stages if st["outcome"] == "pruned" and not st["trace"]["final"]]
    assert [st["d"] for st in emptied] == [12]
    assert emptied[0]["fourier"] == {"consistent": True, "minor_weight_sum": 0.0, "rounded": 1}
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,keep",
    [(["--omega-lo", "2"], lambda w: w >= 2), (["--omega-hi", "1"], lambda w: w <= 1)],
    ids=["lo-only", "hi-only"],
)
def test_experiment_prune_demo_one_omega_bound(flags, keep, tmp_path, capsys):
    # a missing omega bound is open: --omega-lo alone used to raise TypeError,
    # and --omega-hi alone used to be ignored
    rc = main(["experiment", "prune-demo", "--lo", "4", "--hi", "60", "--y", "1", "--z", "12", *flags,
               "--out-dir", str(tmp_path)])
    assert rc == 0
    payload = json.loads((tmp_path / "prune_demo_4_60.json").read_text())
    want = [n for n in range(4, 61) if has_divisor_pair(n, 1, 12) and keep(len(trial_factorize(n)))]
    assert payload["pool_size"] == len(want)
    capsys.readouterr()


def test_experiment_prune_demo_omega_bounds_crossed(tmp_path, capsys):
    argv = ["experiment", "prune-demo", "--omega-lo", "3", "--omega-hi", "2", "--out-dir", str(tmp_path)]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert "--omega-lo" in err and "--omega-hi" in err, err


@pytest.mark.parametrize(
    "argv",
    [["solve", "{set}", "--target", "1/0"], ["experiment", "prune-demo", "--theta", "1/0", "--out-dir", "{tmp}"]],
    ids=["solve-target", "prune-demo-theta"],
)
def test_zero_denominator_named(argv, set_file, tmp_path, capsys):
    assert main([a.format(set=set_file, tmp=tmp_path) for a in argv]) == 64
    assert "zero denominator" in capsys.readouterr().err


def test_out_dir_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EGYFRAC_OUT_DIR", str(tmp_path / "env_root"))
    rc = main(["experiment", "mertens", "--X", "50", "--out-dir", str(tmp_path / "ignored")])
    assert rc == 0
    assert (tmp_path / "env_root" / "mertens_50.json").exists()
    assert not (tmp_path / "ignored").exists()
    capsys.readouterr()


def test_reproducible_artifacts(tmp_path, capsys):
    for d in ("a", "b"):
        rc = main(["experiment", "lambda", "--max", "8", "--out-dir", str(tmp_path / d)])
        assert rc == 0
    a = (tmp_path / "a" / "lambda_8.csv").read_bytes()
    b = (tmp_path / "b" / "lambda_8.csv").read_bytes()
    assert a == b
    am = (tmp_path / "a" / "lambda_8.csv.manifest.json").read_bytes()
    bm = (tmp_path / "b" / "lambda_8.csv.manifest.json").read_bytes()
    assert am == bm
    capsys.readouterr()


def test_solve_reproducible_json(set_file, tmp_path):
    outs = []
    for d in ("x.json", "y.json"):
        out = tmp_path / d
        assert main(["solve", str(set_file), "--target", "1/1", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "argv,named",
    [
        (["solve", "{set}"], "--target"),
        (["solve", "{set}", "--target", "1/1", "--strategy", "bogus"], "--strategy"),
        (["fourier", "{set}", "--k", "1", "--threads", "abc"], "--threads"),
        (["solve", "{set}", "--target", "1/1", "--budget", "0"], None),
        (["solve", "{set}", "--target", "1/1", "--out", "{tmp}/missing/r.json"], None),
        (["experiment", "mertens", "--X", "50", "--out-dir", "{set}"], None),
        (["decompose", "{set}", "--table-bound", "5"], "--table-bound"),
        (["experiment", "prune-demo", "--y", "0", "--out-dir", "{tmp}"], "--y"),
        (["experiment", "prune-demo", "--y", "-3", "--out-dir", "{tmp}"], "--y"),
        (["experiment", "sieve", "--N", "100", "--z", "inf", "--out-dir", "{tmp}"], "--z"),
        (["experiment", "pomerance", "--N", "0", "--out-dir", "{tmp}"], "--N"),
        (["experiment", "pomerance", "--N", "30", "--step", "0", "--out-dir", "{tmp}"], "--step"),
        (["experiment", "pomerance", "--N", "30", "--step", "-5", "--out-dir", "{tmp}"], "--step"),
        (["experiment", "lambda", "--max", "1", "--out-dir", "{tmp}"], "--max"),
        (["experiment", "prune-demo", "--omega-lo", "nan", "--out-dir", "{tmp}"], "--omega-lo"),
        (["experiment", "prune-demo", "--omega-hi", "nan", "--out-dir", "{tmp}"], "--omega-hi"),
        (["experiment", "prune-demo", "--smooth-bound", "nan", "--out-dir", "{tmp}"], "--smooth-bound"),
        (["experiment", "pomerance", "--N", "30", "--C", "nan", "--out-dir", "{tmp}"], "--C"),
        (["experiment", "pomerance", "--N", "30", "--sweep-C", "1,nan", "--out-dir", "{tmp}"], "--sweep-C"),
        (["fourier", "{set}", "--k", "1", "--threads", "0"], "--threads"),
        (["experiment", "prune-demo", "--threads", "-2", "--out-dir", "{tmp}"], "--threads"),
        (["fourier", "{set}", "--k", "1", "--arc-width", "nan"], "--arc-width"),
        (["fourier", "{set}", "--k", "1", "--arc-width", "inf"], "--arc-width"),
        (["experiment", "prune-demo", "--lo", "4", "--hi", "150", "--theta", "-1", "--out-dir", "{tmp}"], "--theta"),
    ],
    ids=["missing-target", "bad-strategy", "bad-threads", "zero-budget", "out-in-missing-dir", "out-dir-is-file",
         "decompose-table-bound", "prune-demo-y-zero", "prune-demo-y-negative", "sieve-z-inf",
         "pomerance-N-zero", "pomerance-step-zero", "pomerance-step-negative", "lambda-max-one",
         "prune-demo-omega-lo-nan", "prune-demo-omega-hi-nan", "prune-demo-smooth-bound-nan", "pomerance-C-nan",
         "pomerance-sweep-C-nan", "fourier-threads-zero", "prune-demo-threads-negative", "fourier-arc-width-nan",
         "fourier-arc-width-inf", "prune-demo-theta-negative"],
)
def test_usage_errors_exit_64(argv, named, set_file, tmp_path, capsys):
    # argparse must not exit 2, the budget code, and none of these may end in a traceback;
    # a message about a bad option value names the option
    argv = [a.format(set=set_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err.startswith("egyfrac: error:")
    assert named is None or named in err, err


def test_out_dir_env_naming_a_file_exits_64(set_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("EGYFRAC_OUT_DIR", str(set_file))
    assert main(["experiment", "mertens", "--X", "50", "--out-dir", str(tmp_path)]) == 64
    assert capsys.readouterr().err.startswith("egyfrac: error:")


def test_experiment_lambda_honours_budget(tmp_path, capsys):
    assert main(["experiment", "lambda", "--max", "8", "--budget", "1", "--out-dir", str(tmp_path)]) == 3
    assert capsys.readouterr().err.startswith("egyfrac: error:")
    assert not (tmp_path / "lambda_8.csv").exists()


def test_readme_documents_every_cli_option():
    # each subcommand's usage in README is its "egyfrac <command>" lines and their indented continuations
    usage: dict[str, str] = {}
    command = None
    for line in (Path(__file__).parents[1] / "README.md").read_text().splitlines():
        if line.startswith("egyfrac "):
            command = line.split()[1]
        elif not line.startswith(" "):
            command = None
        if command:
            usage[command] = usage.get(command, "") + line + "\n"
    subparsers = next(a for a in egyfrac.cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            for opt in action.option_strings:
                if opt not in ("-h", "--help"):
                    assert re.search(re.escape(opt) + r"(?![\w-])", usage.get(name, "")), (name, opt)


@pytest.mark.parametrize("module", ["egyfrac", "egyfrac.cli"])
def test_python_m_gives_the_exit_code_and_stdout_of_main(module, tmp_path, capsys):
    # python -m egyfrac.cli used to exit 0 with no output, and python -m egyfrac found no __main__
    f = tmp_path / "set.txt"
    f.write_text("2\n3\n6\n")
    src = str(Path(egyfrac.cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for argv, code in [(["solve", str(f), "--target", "1/1"], 0), (["solve", str(f)], 64)]:
        assert main(argv) == code
        out = capsys.readouterr().out
        run = subprocess.run([sys.executable, "-m", module, *argv],
                             capture_output=True, text=True, env=env, timeout=60)
        assert (run.returncode, run.stdout) == (code, out), run.stderr
        if code == 0:
            assert json.loads(out)["witness"] == [2, 3, 6]


def test_programming_errors_are_not_mapped(tmp_path, monkeypatch):
    def broken(args):
        raise KeyError("bug")

    monkeypatch.setitem(egyfrac.cli._EXPERIMENTS, "mertens", broken)
    with pytest.raises(KeyError):
        main(["experiment", "mertens", "--out-dir", str(tmp_path)])


def test_dump_json_refuses_non_finite_floats():
    # Infinity and NaN are not JSON; the encoder used to write them as bare words
    with pytest.raises(ValueError):
        egyfrac.cli._dump_json({"x": float("inf")})
    with pytest.raises(ValueError):
        egyfrac.cli._dump_json({"x": [float("nan")]})


# sha256 of each artifact and its manifest sidecar; these bytes are part of
# the CLI's contract and must not change
PINNED_ARTIFACTS = [
    (["mertens", "--X", "100"], "mertens_100.json",
     "9d65f486f31dcefe9d2266ebc25091737b9c2a245b939d6fba8ad8f511a6e8e7",
     "6cc003e9d487aaeb92bca76cfd2b93b40b53708ee0a630d4b46b5a6d7da800c8"),
    (["sieve", "--N", "5000"], "sieve_5000_3.0_100.0.json",
     "d66bb4a01568b8858803a4b9300ddecc1cad5fcfa5cd7bd4edcee53b3650fcc7",
     "9a24850cfeab0ce15018af0581d9376a23611ad8be33c3105c9c2d3add10a10d"),
    (["pomerance", "--N", "60"], "pomerance_60_1.0.csv",
     "a0a9578f5240c3614cedc8762c133663d92cc119fa98fedcd7347e45211df5d3",
     "ea80f72d57f94cccaea82f89aed0dc5cc3cd65045c540c44a144130ace537e3c"),
    (["lambda", "--max", "6"], "lambda_6.csv",
     "9b30d6ad07f755183c49540381fdee2942acdf987e6a1f65edd15088741d0add",
     "80abd3aba5eecdf4faf82d0ff9a42bdeb107e71b6466bfc8b5d357fd074d0ca9"),
    (["lambda", "--max", "22"], "lambda_22.csv",
     "96136a7132f7780e4ebf33776e2078d46c68dcbf180a7b58fe8a2e0553979766",
     "005ad48aaa459710402f4cb2176d722f2f8c0e6f118564086ccf7b1d1a5d20ae"),
    (["prune-demo", "--lo", "4", "--hi", "60", "--y", "1", "--z", "12"], "prune_demo_4_60.json",
     "c72c6f0f0f631b49f40ee0e57af5d685692d138671090676f1cdb5139f99a2e9",
     "d6cbb2c0c42a23987aa2f12d99dc83f29e315112c20082625a9c582390dfd99d"),
]


def _pin_ids(pins) -> list[str]:
    # the experiment's name, with its first value appended when an earlier pin has that name
    ids = [params[0] for params, *_ in pins]
    return [name if name not in ids[:i] else f"{name}-{pins[i][0][2]}" for i, name in enumerate(ids)]


@pytest.mark.parametrize("params,name,artifact_sha,manifest_sha", PINNED_ARTIFACTS, ids=_pin_ids(PINNED_ARTIFACTS))
def test_experiment_artifacts_pinned(params, name, artifact_sha, manifest_sha, tmp_path, capsys):
    assert main(["experiment", *params, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / name}\n"
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == artifact_sha
    assert hashlib.sha256((tmp_path / (name + ".manifest.json")).read_bytes()).hexdigest() == manifest_sha
