import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import ssd
from ssd.cli import run
from ssd.design_core import read_design


def test_construct_and_evaluate_round_trip(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    r = tmp_path / "r.json"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    assert run(["evaluate", str(d), "--json", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert rep["A2"] == {"num": 6, "den": 1}
    assert rep["achieves_theorem1"] is True
    out = capsys.readouterr().out
    assert "overall A2 = 6" in out


def test_show_labels(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--show-labels", "--out", str(d)]) == 0
    out = capsys.readouterr().out
    assert "X1^2+2*X1+X2" in out


def test_bound_command(capsys):
    assert run(["bound", "--N", "81", "--m", "100", "--s", "9"]) == 0
    out = capsys.readouterr().out
    assert "theorem1 = 3600" in out
    assert run(["bound", "--N", "81",
                "--levels", ",".join(["9"] * 99 + ["3"] * 4)]) == 0
    assert "theorem10 = 3600" in capsys.readouterr().out


def test_bound_usage_error(capsys):
    assert run(["bound", "--N", "9"]) == 2


def test_branch_command(tmp_path):
    d = tmp_path / "b.ssd"
    assert run(["branch", "--s", "3", "--n", "2", "--family", "h",
                "--branch", "X1", "--levels", "0,1", "--out", str(d)]) == 0
    D = read_design(d)
    assert (D.N, D.m) == (6, 3)


def test_replace_command(tmp_path):
    d = tmp_path / "d.ssd"
    out = tmp_path / "out.ssd"
    assert run(["construct", "--theorem", "6", "--s", "9", "--n", "2",
                "--k", "2", "--out", str(d)]) == 0
    assert run(["replace", str(d), "--col", "0", "--oa-levels", "3",
                "--out", str(out)]) == 0
    D = read_design(out)
    assert D.levels[:4] == (3, 3, 3, 3) and D.m == 23


def test_oracle_command(capsys):
    assert run(["oracle", "min-a2", "--N", "6", "--s", "3", "--m", "2"]) == 0
    out = capsys.readouterr().out
    assert "best A2 = 1/2" in out
    assert "certified = True" in out


def test_export_byte_stable_json(tmp_path):
    d = tmp_path / "d.ssd"
    d2 = tmp_path / "d2.ssd"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    run(["construct", "--theorem", "8", "--s", "3", "--n", "2", "--k", "2",
         "--out", str(d)])
    assert run(["export", str(d), "--out", str(d2), "--json", str(r1)]) == 0
    assert run(["evaluate", str(d2), "--json", str(r2)]) == 0
    assert d.read_bytes() == d2.read_bytes()
    assert r1.read_bytes() == r2.read_bytes()


def test_evaluate_rejects_unbalanced_without_flag(tmp_path, capsys):
    f = tmp_path / "bad.ssd"
    f.write_text("# ssd v1\n4 1\n2\n0\n0\n0\n1\n")
    assert run(["evaluate", str(f)]) == 1
    assert "unbalanced" in capsys.readouterr().err


def test_construct_usage_errors(tmp_path, capsys):
    assert run(["construct", "--theorem", "6", "--s", "3", "--n", "2",
                "--out", str(tmp_path / "x.ssd")]) == 2
    assert run(["construct", "--theorem", "7", "--s", "4", "--n", "2",
                "--k", "2", "--out", str(tmp_path / "x.ssd")]) == 1
    err = capsys.readouterr().err
    assert "odd" in err


def test_construct_with_alternate_modulus(tmp_path):
    d1 = tmp_path / "a.ssd"
    d2 = tmp_path / "b.ssd"
    assert run(["construct", "--theorem", "4", "--s", "9", "--n", "2",
                "--out", str(d1)]) == 0
    assert run(["construct", "--theorem", "4", "--s", "9", "--n", "2",
                "--modulus", "1,0,1", "--out", str(d2)]) == 0
    A = read_design(d1)
    B = read_design(d2)
    assert (A.N, A.m) == (B.N, B.m)
    assert (A.matrix != B.matrix).any()  # different symbol encoding ...
    from ssd.criteria import a2_overall
    assert a2_overall(A) == a2_overall(B)  # ... same invariants


def test_example3_command(tmp_path, capsys):
    d = tmp_path / "t2.ssd"
    assert run(["construct", "--theorem", "example3", "--s", "3",
                "--branch", "X1^2+X1+X2", "--out", str(d)]) == 0
    assert "branch type 2" in capsys.readouterr().out
    D = read_design(d)
    assert (D.N, D.m) == (18, 12)


def test_evaluate_bundled_table(tmp_path, capsys):
    import importlib.resources
    src = importlib.resources.files("ssd").joinpath(
        "data", "appendix_table6.ssd")
    f = tmp_path / "t6.ssd"
    f.write_text(src.read_text())
    r = tmp_path / "t6.json"
    assert run(["evaluate", str(f), "--json", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert rep["A2"] == {"num": 48, "den": 1}
    counts = {(h["value"]["num"], h["value"]["den"]): h["count"]
              for h in rep["projected_A2_histogram"]}
    assert counts == {(0, 1): 30, (4, 9): 54, (2, 3): 36}


@pytest.mark.slow
def test_verify_catalog_command(capsys):
    assert run(["verify-catalog"]) == 0
    out = capsys.readouterr().out
    assert "34/34 rows verified" in out
    assert "FAIL" not in out


def test_evaluate_large_field_uses_scalar_arithmetic(tmp_path):
    # GF(27) lies above the old dense-table limit of 25; construct and the
    # character route both run on the field's tables there
    from ssd.criteria import projected_a2, projected_a2_char
    d = tmp_path / "g27.ssd"
    r = tmp_path / "g27.json"
    assert run(["construct", "--theorem", "4", "--s", "27", "--n", "2",
                "--out", str(d)]) == 0
    assert run(["evaluate", str(d), "--json", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert (rep["N"], rep["m"]) == (729, 55)
    assert rep["A2"] == {"num": 702, "den": 1}
    assert rep["achieves_theorem1"] is True
    assert rep["gwlp"][1] == pytest.approx(702, abs=1e-9)
    D = read_design(d)
    assert projected_a2_char(D, 0, 54) == pytest.approx(
        float(projected_a2(D, 0, 54)), abs=1e-9)


def test_evaluate_any_level_counts(tmp_path):
    # 12 runs with 12-, 6-, 2-, 3- and 4-level columns: no field realizes
    # 6 or 12 levels, and the wordlength pattern needs none
    from ssd.design_core import Design, write_design
    from ssd.oracle import gwlp_bruteforce
    x = np.arange(12)
    D = Design(np.stack([x, x % 6, x // 6, x // 4, x % 4], axis=1),
               (12, 6, 2, 3, 4))
    d = tmp_path / "mixed.ssd"
    r = tmp_path / "mixed.json"
    write_design(D, d)
    assert run(["evaluate", str(d), "--json", str(r)]) == 0
    rep = json.loads(r.read_text())
    a2 = F(rep["A2"]["num"], rep["A2"]["den"])
    assert rep["gwlp"][1] == pytest.approx(float(a2), abs=1e-9)
    for j in (1, 2, 3):
        assert rep["gwlp"][j - 1] == pytest.approx(gwlp_bruteforce(D, j),
                                                   abs=1e-9)
    # evaluation takes no field representation
    assert run(["evaluate", str(d), "--modulus", "1,0,1"]) == 2


POINTS_3_12 = "error: 3^12 points exceed the supported 4096\n"
KEEPS_3_11 = "error: the fraction keeps 177147 runs, more than the supported 4096\n"


@pytest.mark.parametrize("theorem,message", [
    (["4"], POINTS_3_12), (["6", "--k", "2"], POINTS_3_12),
    (["7", "--k", "2"], POINTS_3_12),
    (["8", "--k", "1"], KEEPS_3_11), (["9", "--k", "1"], KEEPS_3_11)],
    ids=[f"theorem{i}" for i in range(5)])
def test_construct_rejects_oversize_point_space_first(tmp_path, capsys,
                                                      monkeypatch, theorem,
                                                      message):
    from ssd import constructions

    def no_labels(*args):
        raise AssertionError("label set built for a rejected point space")
    for name in ("h_set", "q1_star", "qh", "qh_star", "q1"):
        monkeypatch.setattr(constructions, name, no_labels)
    d = tmp_path / "big.ssd"
    assert run(["construct", "--theorem", *theorem, "--s", "3", "--n", "12",
                "--out", str(d)]) == 1
    assert capsys.readouterr().err == message
    assert not d.exists()


def test_construct_and_evaluate_prime_field_29(tmp_path):
    d = tmp_path / "g29.ssd"
    r = tmp_path / "g29.json"
    assert run(["construct", "--theorem", "4", "--s", "29", "--n", "2",
                "--out", str(d)]) == 0
    assert run(["evaluate", str(d), "--json", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert (rep["N"], rep["m"]) == (841, 59)
    assert rep["A2"] == {"num": 29 * 29 - 29, "den": 1}
    assert rep["achieves_theorem1"] is True


def test_construct_rejects_too_many_runs(tmp_path, capsys):
    d = tmp_path / "g67.ssd"
    assert run(["construct", "--theorem", "4", "--s", "67", "--n", "2",
                "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        "error: 67^2 points exceed the supported 4096\n")
    assert not d.exists()
    levels = ",".join(map(str, range(15)))
    assert run(["branch", "--s", "17", "--n", "3", "--branch", "X1",
                "--levels", levels, "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        "error: the fraction keeps 4335 runs, more than the supported 4096\n")
    assert not d.exists()


def test_branch_keeps_fraction_of_larger_point_set(tmp_path):
    # 17^3 points exceed the run limit, but one kept level is 289 runs
    d = tmp_path / "b17.ssd"
    assert run(["branch", "--s", "17", "--n", "3", "--branch", "X1",
                "--levels", "0", "--out", str(d)]) == 0
    D = read_design(d)
    assert (D.N, D.m) == (289, 306)
    assert D.is_balanced


@pytest.mark.parametrize("module", ["ssd", "ssd.cli"])
def test_module_entry_points(module):
    src = str(Path(ssd.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)

    def call(*args):
        return subprocess.run([sys.executable, "-m", module, *args], env=env,
                              capture_output=True, text=True, timeout=120)

    proc = call("--help")
    assert proc.returncode == 0
    assert "usage: ssd" in proc.stdout
    proc = call("bound", "--N", "9")
    assert proc.returncode == 2
    assert "either --levels" in proc.stderr


def test_evaluate_two_column_design(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    r = tmp_path / "r.json"
    assert run(["construct", "--theorem", "8", "--s", "2", "--n", "2",
                "--k", "1", "--out", str(d)]) == 0
    assert run(["evaluate", str(d), "--json", str(r)]) == 0
    assert len(json.loads(r.read_text())["gwlp"]) == 2
    # an explicit depth beyond m is still refused
    assert run(["evaluate", str(d), "--jmax", "3"]) == 1
    assert "error: jmax must lie in 1..m" in capsys.readouterr().err


@pytest.mark.parametrize("col", ["-1", "99"])
@pytest.mark.parametrize("source", ["--oa-levels", "--table"])
def test_replace_rejects_column_out_of_range(tmp_path, capsys, col, source):
    d = tmp_path / "d.ssd"
    t = tmp_path / "t.ssd"
    out = tmp_path / "out.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    t.write_text("# ssd v1\n3 1\n3\n0\n1\n2\n")
    capsys.readouterr()
    arg = "3" if source == "--oa-levels" else str(t)
    assert run(["replace", str(d), "--col", col, source, arg,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: column index {col} outside 0..6\n")
    assert not out.exists()


def test_branch_rejects_variable_zero(tmp_path, capsys):
    d = tmp_path / "b.ssd"
    assert run(["branch", "--s", "3", "--n", "2", "--branch", "X0",
                "--levels", "0,1", "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        "error: variable X0 in label 'X0' is not one of X1..X2\n")
    assert not d.exists()


def test_construct_rejects_variable_beyond_n(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "6", "--s", "3", "--n", "2",
                "--k", "2", "--hs", "X1,X3", "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        "error: variable X3 in label 'X3' is not one of X1..X2\n")
    assert not d.exists()
