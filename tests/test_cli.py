import csv
import json

import pytest

from egyfrac.cli import main
from helpers import divisors_above_one


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


def test_fourier_resource_exit(tmp_path, capsys):
    f = tmp_path / "primes.txt"
    f.write_text("\n".join(map(str, [101, 103, 107, 109, 113, 127])) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 3
    capsys.readouterr()


def test_fourier_refused_count_exit(tmp_path, capsys):
    f = tmp_path / "divisors.txt"
    f.write_text("\n".join(map(str, divisors_above_one(720720)[:80])) + "\n")
    assert main(["fourier", str(f), "--k", "1"]) == 3
    assert capsys.readouterr().err.startswith("egyfrac: error:")


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


def test_experiment_prune_demo_records_refused_stage(tmp_path, capsys):
    # every pruned stage keeps 42 or more elements, beyond what the float sum
    # can certify, and the huge lcm bound lets each one reach the counter
    rc = main(
        ["experiment", "prune-demo", "--lo", "4", "--hi", "150", "--y", "1", "--z", "12",
         "--lcm-bound", str(10**30), "--out-dir", str(tmp_path)]
    )
    assert rc == 0
    payload = json.loads((tmp_path / "prune_demo_4_150.json").read_text())
    pruned = [st for st in payload["stages"] if st["outcome"] == "pruned"]
    assert pruned
    for st in pruned:
        assert len(st["trace"]["final"]) >= 42
        assert st["fourier"].startswith("skipped: "), st["fourier"]
    capsys.readouterr()


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
