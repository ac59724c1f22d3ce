"""`ssd construct` and `ssd replace` files pinned byte for byte.

The files in `tests/data/constructs` were written by the per-row text
writer that the byte-table writer replaced.  They cover a single-digit
field (thm6 over GF(9)), a multi-digit field (thm4 over GF(16)), mixed
symbol widths (that design with column 3 replaced by a 2-level saturated
array), and a design the writer splits into several row blocks (thm6 over
GF(16), k = 17, stored gzipped).  The command's file, `write_design` and
`ssd export` must all reproduce them, and `write_design` must reproduce
the bundled reference tables that `load_appendix` reads.

The thm8 and thm9 fractions (linear labels, and quadratic labels over one
and over three coordinates, each at the default and another modulus) were
written by the label evaluator that took two 2-D lookups per quadratic cell,
before it read each quadratic row sq[a, l] once per block.
"""

import gzip
import importlib.resources
from pathlib import Path

import pytest

from ssd.cli import run
from ssd.constructions import APPENDIX, load_appendix
from ssd.design_core import TEXT_BLOCK_CELLS, read_design, write_design

CONSTRUCTS = Path(__file__).parent / "data" / "constructs"

CASES = {
    "thm6_s9_n2_k2.ssd":
        ["construct", "--theorem", "6", "--s", "9", "--n", "2", "--k", "2"],
    "thm4_s16_n2.ssd": ["construct", "--theorem", "4", "--s", "16", "--n", "2"],
    "thm4_s16_n2_col3_oa2.ssd":
        ["replace", str(CONSTRUCTS / "thm4_s16_n2.ssd"), "--col", "3",
         "--oa-levels", "2"],
    "thm6_s16_n2_k17.ssd.gz":
        ["construct", "--theorem", "6", "--s", "16", "--n", "2", "--k", "17"],
    "thm8_s9_n3_k3.ssd.gz":
        ["construct", "--theorem", "8", "--s", "9", "--n", "3", "--k", "3"],
    "thm8_s9_n3_k3_mod211.ssd.gz":
        ["construct", "--theorem", "8", "--s", "9", "--n", "3", "--k", "3",
         "--branch", "X1+2*X2+X3", "--levels", "0,4,7", "--modulus", "2,1,1"],
    "thm9_s16_n2_k5.ssd":
        ["construct", "--theorem", "9", "--s", "16", "--n", "2", "--k", "5"],
    "thm9_s16_n2_k5_mod10011.ssd":
        ["construct", "--theorem", "9", "--s", "16", "--n", "2", "--k", "5",
         "--levels", "1,5,9,12,15", "--modulus", "1,0,0,1,1"],
    "thm9_s9_n3_k2_mod101.ssd.gz":
        ["construct", "--theorem", "9", "--s", "9", "--n", "3", "--k", "2",
         "--levels", "2,6", "--modulus", "1,0,1"],
}


def golden(name: str) -> bytes:
    data = (CONSTRUCTS / name).read_bytes()
    return gzip.decompress(data) if name.endswith(".gz") else data


@pytest.mark.parametrize("name", sorted(CASES))
def test_written_design_matches_golden(tmp_path, name):
    want = golden(name)
    out, again, export = (tmp_path / f for f in ("out.ssd", "again.ssd",
                                                 "export.ssd"))
    assert run([*CASES[name], "--out", str(out)]) == 0
    assert out.read_bytes() == want
    D = read_design(out)
    write_design(D, again)
    assert again.read_bytes() == want
    assert run(["export", str(out), "--out", str(export)]) == 0
    assert export.read_bytes() == want


def test_golden_designs_cover_every_writer_case():
    designs = {name: read_design(CONSTRUCTS / name) for name in CASES
               if not name.endswith(".gz")}
    assert max(designs["thm6_s9_n2_k2.ssd"].levels) <= 10   # one digit
    assert set(designs["thm4_s16_n2.ssd"].levels) == {16}
    assert set(designs["thm4_s16_n2_col3_oa2.ssd"].levels) == {2, 16}
    text = golden("thm6_s16_n2_k17.ssd.gz").decode("ascii").splitlines()
    N, m = map(int, text[1].split())
    assert N > TEXT_BLOCK_CELLS // m    # more rows than one block holds


@pytest.mark.parametrize("which", [6, 7, 8])
def test_bundled_tables_are_written_back_byte_for_byte(tmp_path, which):
    packaged = importlib.resources.files("ssd").joinpath("data",
                                                         APPENDIX[which][0])
    out = tmp_path / "table.ssd"
    write_design(load_appendix(which), out)
    assert out.read_bytes() == packaged.read_bytes()
