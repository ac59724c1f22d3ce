"""Output checks that share no code with the program under test.

Each check returns (failure reason or None, disclosure dict).  Expected
values come with the operation (closed forms, published table values); the
A2 of every written design is recounted here with numpy alone.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np


def read_design_file(path):
    """Parse the `# ssd v1` text format into (matrix, levels)."""
    with open(path, encoding="ascii") as fh:
        if fh.readline().strip() != "# ssd v1":
            raise ValueError("missing header")
        N, m = map(int, fh.readline().split())
        levels = np.array(fh.readline().split(), dtype=np.int64)
        body = np.fromstring(fh.read(), dtype=np.int64, sep=" ")
    if levels.size != m or body.size != N * m:
        raise ValueError(f"expected {N}x{m} symbols and {m} levels")
    return body.reshape(N, m), levels


def recount_a2(X, levels):
    """Overall A2 = sum over column pairs of (s_i s_j sum n_ab^2 - N^2) / N^2.

    The cell counts of all pairs (i, j > i) come from one bincount per i over
    codes x_i * L + x_j, with each column j given its own block of L^2 bins.
    """
    N, m = X.shape
    L = int(levels.max())
    Xt = np.ascontiguousarray(X.T)
    blocks = Xt + (np.arange(m, dtype=np.int64) * (L * L))[:, None]
    scaled = Xt * L
    num = 0
    for i in range(m - 1):
        codes = blocks[i + 1:] + scaled[i]
        cnt = np.bincount(codes.ravel(), minlength=m * L * L)[(i + 1) * L * L:]
        cnt = cnt.reshape(m - i - 1, L * L)
        sumsq = np.einsum("ij,ij->i", cnt, cnt)
        num += int((levels[i] * levels[i + 1:] * sumsq).sum()) - (m - i - 1) * N * N
    return Fraction(num, N * N)


def theorem1_bound(N, m, s):
    """Equal-level bound with the coincidence-integrality correction, >= 0."""
    k1 = Fraction(m * (N - s), (N - 1) * s)
    eta = k1 - math.floor(k1)
    lemma2 = Fraction(m * (s - 1) * (m * s - m - N + 1), 2 * (N - 1))
    return max(lemma2 + Fraction(N - 1, 2 * N) * s * s * eta * (1 - eta), Fraction(0))


def theorem10_bound(N, levels):
    """Level-profile bound (T - m)(T - m - N + 1) / (2(N - 1)), >= 0."""
    d = sum(levels) - len(levels)
    return max(Fraction(d * (d - N + 1), 2 * (N - 1)), Fraction(0))


def _rat(obj):
    return Fraction(obj["num"], obj["den"])


def check_evaluate(op, stdout):
    e = op.expect
    with open(op.path, encoding="ascii") as fh:
        rep = json.load(fh)
    info = {"jmax_requested": e["jmax_requested"], "jmax_used": len(rep["gwlp"])}
    if (rep["N"], rep["m"], rep["levels"]) != (e["N"], e["m"], e["levels"]):
        return "shape or levels differ from the input", info
    a2 = _rat(rep["A2"])
    if a2 != e["a2"]:
        return f"A2 {a2} != {e['a2']}", info
    hist = [(_rat(h["value"]), h["count"]) for h in rep["projected_A2_histogram"]]
    if sum(c for _, c in hist) != math.comb(e["m"], 2):
        return "histogram does not cover every pair", info
    if sum(v * c for v, c in hist) != a2:
        return "histogram does not sum to A2", info
    gw = rep["gwlp"]
    tol = 1e-9 * max(1.0, float(a2))
    if len(gw) < 2 or abs(gw[1] - float(a2)) > tol or abs(gw[0]) > tol:
        return f"gwlp prefix {gw[:2]} disagrees with A2 {a2}", info
    if e["jmax"] is not None and len(gw) != e["jmax"]:
        return f"gwlp has {len(gw)} terms, {e['jmax']} requested", info
    b = rep["bounds"]
    t10 = theorem10_bound(e["N"], e["levels"])
    if _rat(b["theorem10"]) != t10 or b["achieved_theorem10"] != (a2 == t10):
        return "profile bound or its achievement flag is wrong", info
    if len(set(e["levels"])) == 1:
        t1 = theorem1_bound(e["N"], e["m"], e["levels"][0])
        if _rat(b["theorem1"]) != t1 or b["achieved_theorem1"] != (a2 == t1):
            return "equal-level bound or its achievement flag is wrong", info
        if a2 == t1 and b["coincidence_spread"] > 1:
            return "bound met but coincidence spread exceeds one", info
    return None, info


def check_design(op, stdout):
    e = op.expect
    X, levels = read_design_file(op.path)
    if (X.shape, sorted(levels.tolist())) != ((e["N"], e["m"]), e["levels"]):
        return f"shape {X.shape} or levels differ from the closed form", {}
    for j, s in enumerate(levels.tolist()):
        if X[:, j].min() < 0 or not (np.bincount(X[:, j], minlength=s) == e["N"] // s).all():
            return f"column {j} is not balanced over {s} symbols", {}
    a2 = recount_a2(X, levels)
    if a2 != e["a2"]:
        return f"recounted A2 {a2} != {e['a2']}", {}
    return None, {}


_ORACLE_RE = re.compile(r"best A2 = (\S+)\nexhaustive = (True|False), "
                        r"certified = (True|False), evaluations = (\d+)")


def check_oracle(op, stdout):
    e = op.expect
    found = _ORACLE_RE.search(stdout)
    if not found:
        return "oracle output not recognised", {}
    best = Fraction(found.group(1))
    info = {"exhaustive": found.group(2) == "True",
            "certified": found.group(3) == "True",
            "evaluations": int(found.group(4)), "budget": e["budget"]}
    if best != e["best"]:
        return f"best A2 {best} != {e['best']}", info
    for key in ("exhaustive", "certified"):
        if e[key] is not None and info[key] != e[key]:
            return f"{key} = {info[key]}, expected {e[key]}", info
    if info["evaluations"] > e["budget"] + 1:
        return "search exceeded its budget", info
    return None, info


def check_catalog(op, stdout):
    marks = Counter(line.split()[0] for line in stdout.splitlines()
                    if line.startswith(("ok ", "FAIL ")))
    want = op.expect["rows"]
    if marks != Counter({"ok": want}) or f"{want}/{want} rows verified" not in stdout:
        return f"catalog rows {dict(marks)}, expected {want} ok", {}
    return None, {}


CHECKS = {"evaluate": check_evaluate, "design": check_design,
          "oracle": check_oracle, "catalog": check_catalog}


def check(op, rc, stdout):
    """Verdict on one executed operation: (failure reason or None, info)."""
    if rc != 0:
        return f"exit code {rc}", {}
    try:
        return CHECKS[op.kind](op, stdout)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc}", {}
