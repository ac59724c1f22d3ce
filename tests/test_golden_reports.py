"""`ssd evaluate` and `ssd evaluate --json` pinned against committed reports.

Each `tests/data/golden/<name>.ssd` has the report `<name>.json` that
`ssd evaluate <name>.ssd --json <name>.json` wrote for it, and the text
report `<name>.txt` that `ssd evaluate <name>.ssd` printed.  The inputs are
the three bundled tables, a mixed 9/3-level design (thm6 over GF(9), n = 2,
k = 2, with both `h` columns replaced by OA(9, 4, 3, 2)), a two-level
design (thm4 over GF(2), n = 4), so E(s^2) and its bound are covered, and
thm6 over GF(7), n = 2, k = 8 (49 x 64), whose pair sums take the
cell-count route of the pair kernel.

The text report must match byte for byte.  Every JSON key must match
exactly except `gwlp`: it is now exact, but the
committed values were written by a floating character route whose last
bits depended on the BLAS in use, so it is compared to 1e-9 * max(1, A2).
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from ssd.cli import run

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.ssd")))
def test_evaluate_report_matches_golden(tmp_path, name):
    out = tmp_path / "report.json"
    assert run(["evaluate", str(GOLDEN / f"{name}.ssd"), "--json", str(out)]) == 0
    got = json.loads(out.read_text())
    want = json.loads((GOLDEN / f"{name}.json").read_text())
    assert list(got) == list(want)
    for key in want:
        if key != "gwlp":
            assert json.dumps(got[key]) == json.dumps(want[key]), key
    a2 = Fraction(want["A2"]["num"], want["A2"]["den"])
    tol = 1e-9 * max(1, float(a2))
    assert len(got["gwlp"]) == len(want["gwlp"])
    for g, w in zip(got["gwlp"], want["gwlp"]):
        assert abs(g - w) <= tol


@pytest.mark.parametrize("name", sorted(p.stem for p in GOLDEN.glob("*.ssd")))
def test_evaluate_text_matches_golden(capsys, name):
    assert run(["evaluate", str(GOLDEN / f"{name}.ssd")]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()
