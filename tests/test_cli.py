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


LABELS = Path(__file__).parent / "data" / "labels"


@pytest.mark.parametrize("name,argv", [
    ("thm4_s3_n3", ["4", "--s", "3", "--n", "3"]),
    # k = |H| for s = 3 and 4, so h takes every position
    ("thm6_s3_n3_k13", ["6", "--s", "3", "--n", "3", "--k", "13"]),
    ("thm6_s4_n3_k21", ["6", "--s", "4", "--n", "3", "--k", "21"]),
    ("thm7_s5_n2_k6", ["7", "--s", "5", "--n", "2", "--k", "6"])])
def test_show_labels_order_is_pinned(tmp_path, capsys, name, argv):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", *argv, "--show-labels",
                "--out", str(d)]) == 0
    *labels, wrote = capsys.readouterr().out.splitlines()
    assert labels == (LABELS / f"{name}.txt").read_text().splitlines()
    assert wrote == f"wrote {read_design(d).N}x{len(labels)} design to {d}"


def test_thm7_takes_hs(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "7", "--s", "3", "--n", "3",
                "--k", "2", "--hs", "X2,X3", "--show-labels",
                "--out", str(d)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "X2^2+X1"


@pytest.mark.parametrize("argv,err", [
    (["construct", "--theorem", "9", "--s", "3", "--n", "0", "--k", "1"],
     "quadratic label sets need at least two variables"),
    (["branch", "--s", "3", "--n", "0", "--family", "q1", "--branch", "X1",
      "--levels", "0"], "quadratic label sets need at least two variables"),
    (["construct", "--theorem", "8", "--s", "3", "--n", "2", "--k", "2",
      "--levels", "0,0"], "the kept levels must be distinct"),
    (["construct", "--theorem", "9", "--s", "3", "--n", "3", "--k", "2",
      "--levels", "1,1"], "the kept levels must be distinct"),
    (["branch", "--s", "3", "--n", "2", "--branch", "X1", "--levels", "0,0"],
     "the kept levels must be distinct"),
    (["branch", "--s", "3", "--n", "2", "--branch", "X1", "--levels",
      "0,0,1"], "the kept levels must be distinct"),
    (["construct", "--theorem", "8", "--s", "3", "--n", "1", "--k", "1"],
     "the branch keeps no column"),
    (["branch", "--s", "3", "--n", "1", "--branch", "X1", "--levels", "0"],
     "the branch keeps no column"),
    # one variable gives a single form, too few to juxtapose
    (["construct", "--theorem", "5", "--s", "3", "--n", "1"],
     "needs at least two variables"),
    (["construct", "--theorem", "6", "--s", "3", "--n", "1", "--k", "2"],
     "needs at least two variables"),
    (["construct", "--theorem", "7", "--s", "3", "--n", "1", "--k", "2"],
     "needs at least two variables"),
    (["construct", "--theorem", "7", "--s", "3", "--n", "3", "--k", "2",
      "--hs", "X1,X2,X3"], "expected 2 forms, got 3"),
    (["construct", "--theorem", "6", "--s", "3", "--n", "2", "--k", "2",
      "--hs", "X1^2+X2,X2"], "the chosen forms must be linear, got 'X1^2+X2'"),
    (["construct", "--theorem", "5", "--s", "3", "--hs", "2*X1,X2"],
     "not a canonical form: the last nonzero coefficient must be 1"),
    # an empty flag value reaches the flag's parser
    (["construct", "--theorem", "example3", "--s", "3", "--branch="],
     "empty label"),
    (["construct", "--theorem", "8", "--s", "3", "--k", "2", "--branch="],
     "empty label"),
    (["construct", "--theorem", "5", "--s", "3", "--hs="], "empty label"),
    (["construct", "--theorem", "6", "--s", "3", "--k", "2", "--hs="],
     "empty label"),
    (["construct", "--theorem", "8", "--s", "3", "--k", "2", "--levels="],
     "expected comma-separated integers, got ''"),
    (["construct", "--theorem", "9", "--s", "3", "--k", "2", "--levels=0,x"],
     "expected comma-separated integers, got '0,x'"),
    (["branch", "--s", "3", "--n", "2", "--branch", "X1", "--levels="],
     "expected comma-separated integers, got ''")],
    ids=["thm9-n0", "branch-q1-n0", "thm8-repeated-levels",
         "thm9-repeated-levels", "branch-repeated-levels",
         "branch-repeated-levels-three", "thm8-n1",
         "branch-n1", "thm5-n1", "thm6-n1", "thm7-n1", "thm7-form-count",
         "thm6-quadratic-hs", "thm5-noncanonical-hs",
         "example3-empty-branch", "thm8-empty-branch", "thm5-empty-hs",
         "thm6-empty-hs", "thm8-empty-levels", "thm9-levels-not-integers",
         "branch-empty-levels"])
def test_degenerate_constructions_are_errors(tmp_path, capsys, argv, err):
    d = tmp_path / "d.ssd"
    assert run([*argv, "--out", str(d)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not d.exists()


def test_bound_command(capsys):
    assert run(["bound", "--N", "81", "--m", "100", "--s", "9"]) == 0
    out = capsys.readouterr().out
    assert "theorem1 = 3600" in out
    assert run(["bound", "--N", "81",
                "--levels", ",".join(["9"] * 99 + ["3"] * 4)]) == 0
    assert "theorem10 = 3600" in capsys.readouterr().out


def test_bound_usage_error(capsys):
    assert run(["bound", "--N", "9"]) == 2


@pytest.mark.parametrize("argv,lines", [
    (["--m", "2", "--s", "3"],
     ["theorem1 = 0 (raw 0)", "lemma2 = 0 (raw -1)", "theorem10 = 0 (raw -1)"]),
    (["--levels", "3,3"], ["theorem10 = 0 (raw -1)"]),
    (["--m", "8", "--s", "3"],
     ["theorem1 = 8 (raw 8)", "lemma2 = 8 (raw 8)", "theorem10 = 8 (raw 8)"])],
    ids=["equal-levels", "profile", "positive"])
def test_bound_prints_every_bound_clamped_with_its_raw_value(capsys, argv,
                                                             lines):
    # A2 >= 0, so a negative lower bound is printed as 0, raw value beside it
    assert run(["bound", "--N", "9", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == lines and captured.err == ""


@pytest.mark.parametrize("argv,err", [
    (["construct", "--theorem", "9", "--s", "3", "--n", "2", "--k", "2",
      "--branch", "X1"], "--theorem 9 does not read --branch"),
    (["construct", "--theorem", "4", "--s", "3", "--k", "5", "--hs", "X1",
      "--levels", "0", "--dealias"],
     "--theorem 4 does not read --k, --hs, --levels, --dealias"),
    (["construct", "--theorem", "8", "--s", "3", "--k", "2", "--hs", "X1"],
     "--theorem 8 does not read --hs"),
    (["construct", "--theorem", "5", "--s", "3", "--k", "7"],
     "--theorem 5 does not read --k"),
    (["construct", "--theorem", "example3", "--s", "3", "--branch", "X1",
      "--n", "5", "--k", "4"], "--theorem example3 does not read --n, --k"),
    (["bound", "--N", "9", "--levels", "3,3", "--m", "5", "--s", "3"],
     "--levels does not read --m, --s"),
    (["construct", "--theorem", "4", "--s", "3", "--k", "0"],
     "--theorem 4 does not read --k"),
    (["bound", "--N", "9", "--levels", "3,3", "--m", "0"],
     "--levels does not read --m")],
    ids=["thm9-branch", "thm4-companion-flags", "thm8-hs", "thm5-k",
         "example3-n-k", "bound-levels-m-s", "thm4-k-zero",
         "bound-levels-m-zero"])
def test_unread_flags_are_usage_errors(tmp_path, capsys, argv, err):
    d = tmp_path / "d.ssd"
    out = ["--out", str(d)] if argv[0] == "construct" else []
    assert run([*argv, *out]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{err}\n" and captured.out == ""
    assert not d.exists()


def test_construct_squared_zero_form_is_its_linear_part(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "6", "--s", "3", "--k", "2",
                "--hs", "(X1+2*X1)^2+X2,X1", "--show-labels",
                "--out", str(d)]) == 0
    labels = capsys.readouterr().out.splitlines()
    assert labels[0] == "X2" and labels[4] == "X1"


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


def test_replace_oa_levels_not_a_root_is_an_error_line(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    out = tmp_path / "out.ssd"
    assert run(["construct", "--theorem", "4", "--s", "9", "--n", "2",
                "--out", str(d)]) == 0
    capsys.readouterr()
    assert run(["replace", str(d), "--col", "0", "--oa-levels", "2",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: 9 is not a power of 2\n"
    assert not out.exists()


@pytest.mark.parametrize("sources", [["--oa-levels", "3", "--table", "d.ssd"],
                                     []], ids=["both", "neither"])
def test_replace_takes_exactly_one_table_source(sources, tmp_path, capsys,
                                                monkeypatch):
    """--table and --oa-levels are one required choice: giving both, or
    neither, is a usage error that writes no file."""
    monkeypatch.chdir(tmp_path)
    assert run(["construct", "--theorem", "4", "--s", "9", "--n", "2",
                "--out", "d.ssd"]) == 0
    capsys.readouterr()
    assert run(["replace", "d.ssd", "--col", "0", *sources,
                "--out", "out.ssd"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ssd replace")
    assert err.endswith(
        "argument --table: not allowed with argument --oa-levels\n" if sources
        else "one of the arguments --oa-levels --table is required\n")
    assert not Path("out.ssd").exists()


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
    from ssd.criteria import aggregate_stats
    assert aggregate_stats(A).A2 == aggregate_stats(B).A2  # ... same invariants


def test_construct_rejects_prime_field_modulus(tmp_path, capsys):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--modulus", "1,1,1", "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        "error: modulus must be monic of degree 1 over GF(3)\n")
    assert not d.exists()
    # a degree-1 modulus gives the same prime field, so the same design
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--modulus", "2,1", "--out", str(d)]) == 0
    plain = tmp_path / "plain.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(plain)]) == 0
    assert d.read_bytes() == plain.read_bytes()


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


@pytest.mark.parametrize("flags,code,err", [
    (["--modulus", "1,1,1"], 2,
     "--modulus and --modulus-levels must be given together\n"),
    (["--modulus-levels", "4"], 2,
     "--modulus and --modulus-levels must be given together\n"),
    (["--modulus", "1,1,0,1", "--modulus-levels", "8"], 1,
     "error: --modulus-levels must be one of 3, 4, 5, got 8\n")],
    ids=["modulus-only", "levels-only", "no-catalog-row"])
def test_verify_catalog_rejects_an_unusable_field(capsys, flags, code, err):
    assert run(["verify-catalog", *flags]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_verify_catalog_under_the_gf4_modulus(capsys):
    assert run(["verify-catalog", "--modulus", "1,1,1",
                "--modulus-levels", "4"]) == 0
    assert capsys.readouterr().out.endswith("\n34/34 rows verified\n")


def test_evaluate_large_field_uses_scalar_arithmetic(tmp_path):
    # GF(27) lies above the old dense-table limit of 25; construct and the
    # character route both run on the field's tables there
    from ssd.design_core import select_columns
    from ssd.oracle import char_a2_matrix, classify_pair
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
    pair = select_columns(D, [0, 54])
    assert char_a2_matrix(pair)[0, 1] == pytest.approx(
        float(classify_pair(D, 0, 54).a2), abs=1e-9)


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
        assert rep["gwlp"][j - 1] == float(gwlp_bruteforce(D, j))
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


@pytest.mark.parametrize("family", ["h", "q1"])
@pytest.mark.parametrize("n, count", [("12", "265720"),
                                      ("100000", "(3^100000 - 1)/2")])
def test_branch_rejects_oversize_label_family_first(tmp_path, capsys,
                                                    monkeypatch, family, n,
                                                    count):
    # both families have (3^n - 1)/2 labels; past n = 13 the count is named
    # by its formula
    from ssd import poly_labels

    def no_labels(*args):
        raise AssertionError("label set built for a rejected branch")
    for name in ("h_set", "q1"):
        monkeypatch.setattr(poly_labels, name, no_labels)
    d = tmp_path / "b.ssd"
    assert run(["branch", "--s", "3", "--n", n, "--family", family,
                "--branch", "X1", "--levels", "0", "--out", str(d)]) == 1
    assert capsys.readouterr().err == (
        f"error: branching {count} labels keeps more than the supported "
        "4096 columns\n")
    assert not d.exists()


def test_oracle_budget_default_is_the_oracles():
    """The parser spells the default out, so that it needs no ssd.oracle."""
    from ssd import cli, oracle
    args = cli._build_parser().parse_args(
        ["oracle", "min-a2", "--N", "4", "--s", "2", "--m", "1"])
    assert args.budget == oracle.DEFAULT_BUDGET


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


@pytest.mark.parametrize("theorem,message", [
    (["4"], "4096^2 points exceed the supported 4096"),
    (["6", "--k", "2"], "1024^2 points exceed the supported 4096"),
    (["8", "--k", "2"], "the fraction keeps 8192 runs, more than the "
                        "supported 4096"),
    (["9", "--k", "3"], "the fraction keeps 12288 runs, more than the "
                        "supported 4096")],
    ids=["theorem4", "theorem6", "theorem8", "theorem9"])
def test_construct_checks_the_run_count_before_building_the_field(
        tmp_path, capsys, monkeypatch, theorem, message):
    from ssd import gf

    def no_field(*args):
        raise AssertionError("a field was built for a rejected design")
    monkeypatch.setattr(gf, "Field", no_field)
    monkeypatch.setattr(gf, "default_field", no_field)
    s = "1024" if theorem[0] == "6" else "4096"
    d = tmp_path / "big.ssd"
    assert run(["construct", "--theorem", *theorem, "--s", s, "--n", "2",
                "--out", str(d)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not d.exists()


def test_branch_keeps_fraction_of_larger_point_set(tmp_path):
    # 17^3 points exceed the run limit, but one kept level is 289 runs
    d = tmp_path / "b17.ssd"
    assert run(["branch", "--s", "17", "--n", "3", "--branch", "X1",
                "--levels", "0", "--out", str(d)]) == 0
    D = read_design(d)
    assert (D.N, D.m) == (289, 306)
    assert D.is_balanced


MEASURE_COMMAND_HWM = """
import sys
from ssd.cli import run
rc = run(sys.argv[1:])
with open("/proc/self/status") as fh:
    hwm = next(line for line in fh if line.startswith("VmHWM:"))
print(rc, int(hwm.split()[1]) // 1024)
"""


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc")
def test_gf4096_fraction_peak_memory(tmp_path):
    """The thm8 fraction of GF(4096)^2 evaluates its branch column over all
    16.7M points a block of points at a time: with one intp index over the
    whole point set (134 MB) the command peaked at 423 MB of resident
    memory, and it peaks at about 263 MB without it."""
    src = str(Path(ssd.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = tmp_path / "t.ssd"
    proc = subprocess.run(
        [sys.executable, "-c", MEASURE_COMMAND_HWM, "construct", "--theorem",
         "8", "--s", "4096", "--n", "2", "--k", "1", "--out", str(out)],
        env=env, capture_output=True, text=True, check=True, timeout=300)
    wrote, status = proc.stdout.splitlines()
    assert wrote == f"wrote 4096x4096 design to {out}"
    rc, hwm_mb = map(int, status.split())
    assert rc == 0
    assert hwm_mb < 330


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


@pytest.mark.parametrize("argv,budget", [
    (["--N", "6", "--s", "3", "--m", "3", "--full"], 50),
    (["--N", "9", "--s", "3", "--m", "4"], 1000),
    (["--N", "6", "--s", "3", "--m", "2"], 0)])
def test_oracle_budget_spent_before_any_design(capsys, argv, budget):
    assert run(["oracle", "min-a2", *argv, "--budget", str(budget)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: no complete design within the budget of {budget} evaluations\n")


@pytest.mark.parametrize("budget", ["-1", "-5"])
def test_oracle_negative_budget_is_a_usage_error(capsys, monkeypatch, budget):
    from ssd import oracle

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(oracle, "exhaustive_min_a2", no_search)
    assert run(["oracle", "min-a2", "--N", "6", "--s", "3", "--m", "3",
                "--budget", budget]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --budget: must be 0 or more, got {budget}\n")


def test_oracle_budget_is_read_from_the_flag_only(capsys, monkeypatch):
    monkeypatch.setenv("SSD_BUDGET", "abc")
    assert run(["oracle", "min-a2", "--N", "6", "--s", "3", "--m", "3"]) == 0
    assert capsys.readouterr().out.startswith("best A2 = ")


def test_oracle_searches_deeper_than_the_recursion_limit(capsys):
    # one stack node per chosen column, so 1200 columns search like 5
    argv = ["oracle", "min-a2", "--N", "4", "--s", "2", "--budget", "20000"]
    assert run([*argv, "--m", "1200"]) == 0
    assert "evaluations = 20001" in capsys.readouterr().out
    # more columns than a design holds: rejected before the search
    assert run([*argv, "--m", "4097"]) == 1
    assert capsys.readouterr().err == (
        "error: column count m=4097 must lie in 1..4096\n")


def test_oracle_rejects_negative_level_count(capsys):
    assert run(["oracle", "min-a2", "--N", "6", "--s", "-2", "--m", "3"]) == 1
    assert capsys.readouterr().err == (
        "error: level count s must be at least 2, got -2\n")


@pytest.mark.parametrize("argv,err", [
    (["--N", "4", "--m", "2", "--s", "0"], "level count s must be at least 2, got 0"),
    (["--N", "1", "--m", "2", "--s", "2"], "run count N must be at least 2, got 1"),
    (["--N", "4", "--levels", "2,1"],
     "level count in levels must be at least 2, got 1"),
    (["--N", "9", "--levels="], "expected comma-separated integers, got ''"),
    (["--N", "9", "--m", "-4", "--s", "3"],
     "column count m must be at least 1, got -4"),
    (["--N", "9", "--m", "0", "--s", "3"],
     "column count m must be at least 1, got 0"),
    # the bounds before E(s^2) are not printed either
    (["--N", "4", "--m", "1", "--s", "2"], "need at least two columns")])
def test_bound_rejects_degenerate_shapes(capsys, argv, err):
    assert run(["bound", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {err}\n" and captured.out == ""


def test_evaluate_has_no_allow_unbalanced_flag(tmp_path, capsys):
    f = tmp_path / "bad.ssd"
    f.write_text("# ssd v1\n4 1\n2\n0\n0\n0\n1\n")
    assert run(["evaluate", str(f), "--allow-unbalanced"]) == 2


def test_export_failing_report_writes_no_design(tmp_path, capsys):
    f = tmp_path / "bad.ssd"
    out = tmp_path / "out.ssd"
    f.write_text("# ssd v1\n4 1\n2\n0\n0\n0\n1\n")
    assert run(["export", str(f), "--allow-unbalanced", "--out", str(out),
                "--json", str(tmp_path / "r.json")]) == 1
    assert "balanced" in capsys.readouterr().err
    assert not out.exists()
    # without --json the unbalanced file is re-emitted as it is
    assert run(["export", str(f), "--allow-unbalanced", "--out", str(out)]) == 0
    assert out.read_text() == f.read_text()


@pytest.mark.parametrize("theorem", ["6", "7", "8", "9"])
def test_construct_requires_k(tmp_path, capsys, theorem):
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", theorem, "--s", "3", "--n", "2",
                "--out", str(d)]) == 2
    assert capsys.readouterr().err == "--k is required for this construction\n"
    assert not d.exists()


def test_memory_error_is_an_error_line(tmp_path, capsys, monkeypatch):
    from ssd import criteria
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    capsys.readouterr()
    for detail, err in (("Unable to allocate 2.00 GiB",
                         "error: out of memory (Unable to allocate 2.00 GiB)\n"),
                        ("", "error: out of memory\n")):
        def out_of_memory(D, detail=detail):
            raise MemoryError(detail)
        monkeypatch.setattr(criteria, "design_sums", out_of_memory)
        assert run(["evaluate", str(d)]) == 1
        assert capsys.readouterr().err == err


@pytest.mark.parametrize("levels", ["0", "1"])
def test_replace_oa_levels_below_two_is_an_error_line(tmp_path, capsys, levels):
    d = tmp_path / "d.ssd"
    out = tmp_path / "out.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    capsys.readouterr()
    assert run(["replace", str(d), "--col", "0", "--oa-levels", levels,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: field order must be at least 2, got {levels}\n")
    assert not out.exists()


def test_internal_fault_is_an_error_line(tmp_path, capsys, monkeypatch):
    from ssd import criteria
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    capsys.readouterr()
    for detail, err in (("kernel fault",
                         "error: evaluate: RuntimeError: kernel fault\n"),
                        ("", "error: evaluate: RuntimeError\n")):
        def fault(D, detail=detail):
            raise RuntimeError(detail)
        monkeypatch.setattr(criteria, "design_sums", fault)
        assert run(["evaluate", str(d)]) == 1
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""


@pytest.mark.parametrize("builds", [
    [["construct", "--theorem", "4", "--s", "3", "--n", "2", "--out", "d.ssd"]],
    [["construct", "--theorem", "6", "--s", "9", "--n", "2", "--k", "3",
      "--out", "t.ssd"],
     ["replace", "t.ssd", "--col", "5", "--oa-levels", "3", "--out", "d.ssd"]],
], ids=["equal", "mixed"])
def test_a2_self_check_at_every_level_profile(builds, tmp_path, capsys,
                                              monkeypatch):
    """One pair sum raised by 1 makes the pairwise overall A2 disagree with
    the wordlength pattern's A_2: with equal and with mixed levels the
    report is an error line, never a report that contradicts itself."""
    from ssd import criteria
    design_sums = criteria.design_sums

    def fault(D):
        P, F, joint = design_sums(D)
        P[0] += 1
        return P, F, joint
    monkeypatch.chdir(tmp_path)
    for argv in builds:
        assert run(argv) == 0
    capsys.readouterr()
    monkeypatch.setattr(criteria, "design_sums", fault)
    assert run(["evaluate", "d.ssd"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: evaluate: AssertionError: overall A2 "
                            "disagrees with the pairwise sum\n")


def test_shared_parser_keeps_no_state(tmp_path, capsys, monkeypatch):
    """Each call through the parser built once per process gives what a
    freshly built parser gives."""
    from ssd import cli
    d = tmp_path / "d.ssd"
    assert run(["construct", "--theorem", "4", "--s", "3", "--n", "2",
                "--out", str(d)]) == 0
    oracle = ["oracle", "min-a2", "--N", "6", "--s", "3", "--m", "3",
              "--budget", "100000"]
    steps = [["evaluate", str(d), "--jmax", "5", "--json", "a.json"],
             ["evaluate", str(d), "--json", "b.json"],
             [*oracle, "--full"], oracle,
             ["construct", "--theorem", "4", "--s", "3", "--out"],
             ["construct", "--theorem", "4", "--s", "3", "--n", "2",
              "--out", "c.ssd"]]

    def call(argv, where):
        where.mkdir()
        monkeypatch.chdir(where)
        capsys.readouterr()
        rc = run(argv)
        out, err = capsys.readouterr()
        return rc, out, err, {p.name: p.read_text() for p in where.iterdir()}

    cli._build_parser.cache_clear()
    shared = [call(argv, tmp_path / f"shared{k}") for k, argv in enumerate(steps)]
    assert cli._build_parser.cache_info().misses == 1
    fresh = []
    for k, argv in enumerate(steps):
        cli._build_parser.cache_clear()
        fresh.append(call(argv, tmp_path / f"fresh{k}"))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 0, 0, 2, 0]
    assert len(json.loads(shared[1][3]["b.json"])["gwlp"]) == 3
    assert len(json.loads(shared[0][3]["a.json"])["gwlp"]) == 5
    assert "exhaustive = True" in shared[2][1]
    assert "exhaustive = False" in shared[3][1]
