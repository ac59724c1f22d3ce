"""Random command lines over the argv grammar of all eight commands.

Whatever the flags, a call ends with exit code 0, 1 or 2, never with an
internal-fault line (`error: <command>: <Type>...`, which the CLI prints in
place of a traceback), and a call that exits 0 writes nothing to stderr.
Shapes stay small: at most 81 runs, and oracle budgets of at most 10^4.

Each flag is present in most draws when its command reads it, and takes a
value its command accepts in most draws, so that most calls get past the
parser and many succeed; the rest are the missing, extra and bad values.
"""

import contextlib
import io
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ssd.cli import run

INTERNAL_FAULT = re.compile(
    r"^error: (construct|evaluate|bound|branch|replace|oracle|verify-catalog"
    r"|export): [A-Za-z]+(Error|Exception|Warning)\b", re.MULTILINE)

# (s, n) with s^n <= 81 runs
SHAPES = [(2, 2), (2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (4, 2),
          (4, 3), (5, 2), (7, 2), (8, 2), (9, 2)]
LABELS = ["X1", "X2", "X1+X2", "X1^2+X2", "X2^2+X1", "2*X1+X2"]
BAD_LABELS = ["X9", "X0", "", "X1^", "(X1+X2)^2", "(X1+2*X1)^2", "junk"]
MODULI = ["1,1,1", "1,0,1", "2,2,1", "1,1,0,1", "1,1", "2,1", "", "x"]
LEVEL_SETS = ["0", "0,1", "1,2", "0,1,2"]
BAD_LEVEL_SETS = ["0,0", "", "a", "-1", "9"]


def presence(often):
    """True five times in six draws when often, else once in ten."""
    return st.sampled_from([True] * 5 + [False] if often
                           else [True] + [False] * 9)


def value(good, bad=()):
    """A good value, or a bad one once in six draws."""
    if not bad:
        return st.sampled_from(good)
    return presence(True).flatmap(
        lambda ok: st.sampled_from(good if ok else bad))


def flag(name, good, bad=(), often=True):
    """[name, value] or []."""
    return st.tuples(presence(often), value(good, bad)).map(
        lambda t: [name, str(t[1])] if t[0] else [])


def switch(name, often=True):
    """[name] or []; a switch drawn often is set in half the draws."""
    return (st.sampled_from([[], [name]]) if often
            else presence(False).map(lambda on: [name] if on else []))


def argv_of(*parts):
    """The concatenation of drawn argv fragments, in a drawn order."""
    return st.tuples(*parts).flatmap(st.permutations).map(
        lambda frags: [a for frag in frags for a in frag])


def shape_flags(reads_n=True):
    """Mostly a small shape, else --s and --n drawn apart (at most 6^3
    points, and 6 is no field order)."""
    def shape(valid):
        if valid and not reads_n:
            return st.just(["--s", "3"])
        if valid:
            return st.sampled_from(SHAPES).map(
                lambda sn: ["--s", str(sn[0]), "--n", str(sn[1])])
        return st.tuples(flag("--s", [-1, 0, 1, 2, 3, 6]),
                         flag("--n", [-1, 0, 1, 2, 3])).map(
            lambda t: t[0] + t[1])
    return presence(True).flatmap(shape)


# the flags each theorem reads besides --s, --n, --modulus, --show-labels
# and --out; the others are drawn rarely
THEOREM_FLAGS = {"4": (), "5": ("--hs", "--dealias"),
                 "6": ("--k", "--hs", "--dealias"),
                 "7": ("--k", "--hs", "--dealias"),
                 "8": ("--k", "--branch", "--levels"), "9": ("--k", "--levels"),
                 "example3": ("--branch",)}


def construct(files):
    def flags(theorem):
        read = THEOREM_FLAGS[theorem]
        hs = st.lists(value(LABELS, BAD_LABELS), min_size=1, max_size=2)
        return argv_of(
            st.just(["--theorem", theorem]), shape_flags(theorem != "example3"),
            flag("--k", [1, 2, 3, 4], [-1, 0, 40], "--k" in read),
            st.tuples(presence("--hs" in read), hs).map(
                lambda t: ["--hs", ",".join(t[1])] if t[0] else []),
            flag("--branch", LABELS, BAD_LABELS, "--branch" in read),
            flag("--levels", LEVEL_SETS, BAD_LEVEL_SETS, "--levels" in read),
            flag("--modulus", MODULI, often=False),
            switch("--dealias", "--dealias" in read),
            switch("--show-labels"), st.just(["--out", files["out"]]))
    return st.sampled_from(sorted(THEOREM_FLAGS)).flatmap(flags).map(
        lambda a: ["construct", *a])


def design_file(files):
    return value(files["designs"], files["others"]).map(lambda p: [p])


def evaluate(files):
    return argv_of(design_file(files), flag("--json", [files["json"]]),
                   flag("--jmax", [1, 2, 3, 4], [-1, 0, 7, 100, "x"])).map(
        lambda a: ["evaluate", *a])


def bound(files):
    return argv_of(flag("--N", [4, 8, 9, 16, 27, 81], [-1, 0, 1, 2, "x"]),
                   flag("--m", [1, 2, 5, 40, 1000], [-1, 0]),
                   flag("--s", [2, 3, 9], [-2, 0, 1]),
                   flag("--levels", ["3,3", "9,3", "2,2,2"],
                        ["2", "", "2,x", "0", "3,-3"], often=False)).map(
        lambda a: ["bound", *a])


def branch(files):
    return argv_of(shape_flags(), flag("--family", ["h", "q1"], ["z"]),
                   flag("--branch", LABELS, BAD_LABELS),
                   flag("--levels", LEVEL_SETS, BAD_LEVEL_SETS),
                   flag("--modulus", MODULI, often=False),
                   st.just(["--out", files["out"]])).map(
        lambda a: ["branch", *a])


def replace(files):
    return argv_of(design_file(files),
                   flag("--col", [0, 1, 3], [-1, 100, "x"]),
                   flag("--oa-levels", [2, 3, 4], [-2, 0, 1]),
                   flag("--table", files["designs"], files["others"],
                        often=False),
                   st.just(["--out", files["out"]])).map(
        lambda a: ["replace", *a])


def oracle(files):
    return argv_of(flag("--N", [4, 6, 8, 9, 12], [-1, 0, 1, 2, 16, 81]),
                   flag("--s", [2, 3], [-1, 0, 1, 4]),
                   flag("--m", [1, 2, 3, 5], [-1, 0, 5000]),
                   flag("--budget", [1000, 10000], [-5, 0, 1, 10]),
                   switch("--full")).map(lambda a: ["oracle", "min-a2", *a])


def verify_catalog(files):
    return argv_of(switch("--skip-appendix"),
                   flag("--modulus", MODULI, often=False),
                   flag("--modulus-levels", [4, 8, 9], [-1, 3, 5],
                        often=False)).map(
        lambda a: ["verify-catalog", *a])


def export(files):
    return argv_of(design_file(files), st.just(["--out", files["out"]]),
                   flag("--json", [files["json"]], often=False),
                   switch("--allow-unbalanced")).map(lambda a: ["export", *a])


# verify-catalog rebuilds the whole catalog, about 0.3 s, so it is drawn
# once in about twenty calls
COMMANDS = [construct] * 4 + [evaluate] * 3 + [bound] * 2 + [branch] * 3 \
    + [replace] * 3 + [oracle] * 2 + [export] * 2 + [verify_catalog]

ODD_ARGS = st.sampled_from([[]] * 27 + [["--bogus"], ["--out"], ["-h"]])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Design files, files no command accepts, and the output paths."""
    d = tmp_path_factory.mktemp("grammar")
    for name, argv in [
            ("thm4", ["construct", "--theorem", "4", "--s", "3", "--n", "2"]),
            ("thm6", ["construct", "--theorem", "6", "--s", "4", "--n", "2",
                      "--k", "2"]),
            ("two", ["construct", "--theorem", "8", "--s", "2", "--n", "2",
                     "--k", "1"])]:
        with contextlib.redirect_stdout(io.StringIO()):
            assert run([*argv, "--out", str(d / f"{name}.ssd")]) == 0
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["replace", str(d / "thm6.ssd"), "--col", "0",
                    "--oa-levels", "2", "--out", str(d / "mixed.ssd")]) == 0
    designs = sorted(str(p) for p in d.glob("*.ssd"))
    texts = {
        "unbalanced": "# ssd v1\n4 2\n2 2\n0 0\n0 1\n0 0\n1 1\n",
        "one_column": "# ssd v1\n4 1\n2\n0\n1\n0\n1\n",
        "out_of_range": "# ssd v1\n2 1\n2\n-1\n0\n",
        "malformed": "# ssd v1\n2 2\n2 2\n0 1\n1 1.0\n",
        "no_header": "2 1\n2\n0\n1\n",
        "empty": "",
    }
    for name, text in texts.items():
        (d / f"{name}.ssd").write_text(text)
    others = [str(d / f"{name}.ssd") for name in texts]
    return {"designs": designs,
            "others": others + [str(d / "missing.ssd"), str(d)],
            "out": str(d / "out.ssd"), "json": str(d / "out.json")}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(data=st.data())
def test_every_command_line_ends_cleanly(files, data):
    command = data.draw(st.sampled_from(COMMANDS))
    argv = data.draw(command(files)) + data.draw(ODD_ARGS)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = run(argv)
    stderr = err.getvalue()
    assert rc in (0, 1, 2), (argv, rc, stderr)
    assert not INTERNAL_FAULT.search(stderr), (argv, stderr)
    assert rc != 0 or stderr == "", (argv, stderr)
