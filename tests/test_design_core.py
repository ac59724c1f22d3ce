from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import design_core
from ssd.criteria import a2_overall, strength
from ssd.design_core import (MATRIX_BLOCK_CELLS, Design,
                             branch_fraction, cell_table, classify_pair,
                             coincidence_counts, coincidences,
                             column_juxtapose, design_from_text,
                             design_to_text, fully_aliased_pairs, is_oa,
                             read_design, realize, remove_fully_aliased,
                             replace_column, row_juxtapose, select_columns,
                             write_design)
from ssd.gf import default_field
from ssd.poly_labels import LinearForm, h_set, q1_star, unit_form


def test_design_validation():
    with pytest.raises(ValueError, match="unbalanced"):
        Design([[0], [0], [0], [1], [1], [2]], [3])
    with pytest.raises(ValueError, match="divisible"):
        Design([[0], [1], [2], [0], [1]], [3])
    with pytest.raises(ValueError, match="symbols outside"):
        Design([[0], [3], [1], [2], [1], [2]], [3], require_balanced=False)
    d = Design([[0], [0], [1], [1]], [2])
    with pytest.raises(ValueError):
        d.matrix[0, 0] = 1  # frozen


def test_design_rejects_zero_runs():
    with pytest.raises(ValueError, match="at least one run"):
        Design(np.zeros((0, 2), dtype=int), [2, 2])


def test_design_validation_reports_faults_in_check_order():
    # column 0 unbalanced, column 1 out of range, column 2 not dividing N,
    # column 3 with one level: each check names its first column at fault
    cols = np.array([[0, 0, 0, 1], [0, 1, 5, 1], [0, 1, 0, 1], [0, 0, 1, 1]]).T
    in_range = cols.copy()
    in_range[2, 1] = 0
    cases = [(cols, (2, 2, 3, 1), "column 3 must have at least 2 levels"),
             (cols, (2, 2, 3, 2),
              "run count 4 not divisible by 3 levels of column 2"),
             (cols, (2, 2, 2, 2), r"column 1 has symbols outside 0\.\.1"),
             (in_range, (2, 2, 2, 2), "column 0 is unbalanced")]
    for matrix, levels, message in cases:
        with pytest.raises(ValueError, match=f"^{message}$"):
            Design(matrix, levels)


def test_balance_found_past_the_first_tile(monkeypatch):
    tile = 64
    monkeypatch.setattr(design_core, "MATRIX_BLOCK_CELLS", 4 * tile)
    m = tile + 6
    cols = np.tile([0, 1, 0, 1], (m, 1)).T.copy()
    cols[:, tile + 3] = [0, 0, 0, 1]
    cols[:, tile + 5] = [1, 1, 1, 0]
    with pytest.raises(ValueError, match=f"^column {tile + 3} is unbalanced$"):
        Design(cols, [2] * m)
    assert not Design(cols.copy(), [2] * m, require_balanced=False).is_balanced
    cols[:, tile + 3] = cols[:, tile + 5] = [0, 0, 1, 1]
    assert Design(cols, [2] * m).is_balanced


def test_realize_single_column(gf2):
    D = realize(gf2, 1, [unit_form(1, 0)])
    assert D.matrix[:, 0].tolist() == [0, 1]


def test_realize_example_designs(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    assert (H.N, H.m) == (9, 4) and strength(H) == 2
    D = realize(gf3, 2, h_set(gf3, 2) + q1_star(gf3, 2))
    assert (D.N, D.m) == (9, 7) and strength(D) == 1


def test_run_limit_checked_before_evaluation(gf2):
    f = default_field(64)
    D = realize(f, 2, h_set(f, 2)[:3])
    assert (D.N, D.m) == (4096, 3)
    x1 = unit_form(13, 0)
    with pytest.raises(ValueError, match=r"2\^13 points exceed the supported 4096"):
        realize(gf2, 13, [x1])
    # a fraction is limited by the runs it keeps, not by s^n
    frac = branch_fraction(gf2, 13, [x1, unit_form(13, 1)], x1, [0])
    assert (frac.N, frac.m) == (4096, 1)
    y1 = unit_form(14, 0)
    with pytest.raises(ValueError, match=r"2\^14 points exceed the supported 8192"):
        branch_fraction(gf2, 14, [y1, unit_form(14, 1)], y1, [0])
    f17 = default_field(17)
    z1 = unit_form(3, 0)
    with pytest.raises(ValueError, match="the fraction keeps 4335 runs"):
        branch_fraction(f17, 3, [z1, unit_form(3, 1)], z1, range(15))


def test_column_juxtapose_shapes(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    J = column_juxtapose(H, H)
    assert (J.N, J.m) == (9, 8)
    with pytest.raises(ValueError, match="run counts"):
        column_juxtapose(H, realize(gf3, 3, h_set(gf3, 3)))


def test_lemma6_juxtaposition_shift(gf3):
    # appending a saturated strength-2 array adds m(s-1) to the overall A2
    H = realize(gf3, 2, h_set(gf3, 2))
    for D in (realize(gf3, 2, q1_star(gf3, 2)),      # strength 2, A2 = 0
              column_juxtapose(H, H)):               # aliased, A2 > 0
        both = column_juxtapose(D, H)
        assert a2_overall(both) == a2_overall(D) + D.m * 2


def test_row_juxtapose(gf3):
    frac = branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 0), [0])
    two = row_juxtapose(frac, frac)
    assert (two.N, two.m) == (6, 3)
    with pytest.raises(ValueError, match="level profiles"):
        row_juxtapose(frac, realize(gf3, 2, h_set(gf3, 2)))


def test_branch_fraction_shapes(gf3):
    D = branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 0), [0, 1])
    assert (D.N, D.m) == (6, 3)
    assert D.is_balanced
    with pytest.raises(ValueError, match="proper subset"):
        branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 0), [0, 1, 2])
    with pytest.raises(ValueError, match="empty"):
        branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 0), [])
    for g in ([0, 0], [1, 0, 1]):
        with pytest.raises(ValueError, match="the kept levels must be distinct"):
            branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 0), g)
    with pytest.raises(ValueError, match="not one of"):
        branch_fraction(gf3, 2, h_set(gf3, 2), LinearForm((2, 0)), [0])


def test_branch_fraction_row_order(gf3):
    # rows grouped by kept level, ascending, original point order inside
    D = branch_fraction(gf3, 2, h_set(gf3, 2), unit_form(2, 1), [0, 2])
    # branch on X2: first the three points with x2 = 0, then x2 = 2
    assert D.matrix[:, 0].tolist() == [0, 1, 2, 0, 1, 2]  # X1 column


def test_replace_column_identity(gf3):
    D = realize(gf3, 2, h_set(gf3, 2))
    same = replace_column(D, 2, np.arange(3)[:, None])
    assert (same.matrix == D.matrix).all() and same.levels == D.levels


def test_replace_column_shapes_and_errors(gf3):
    D = realize(gf3, 2, h_set(gf3, 2))
    oa = np.array([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(ValueError, match="unbalanced"):
        replace_column(D, 0, np.array([[0], [2], [2]]))
    with pytest.raises(ValueError, match="rows"):
        replace_column(D, 0, np.array([[0], [1]]))
    for bad in (-1, D.m):
        with pytest.raises(ValueError, match="outside 0..3"):
            replace_column(D, bad, np.arange(3)[:, None])
    out = replace_column(D, 1, oa)
    assert out.m == 5 and out.levels == (3, 3, 3, 3, 3)
    assert out.labels is None


@pytest.mark.parametrize("table,err", [
    ([[0], [2], [2]], "column 0 is unbalanced"),
    ([[0, 0], [0, 1], [0, 0]], "column 0 must have at least 2 levels"),
    ([[0, 0], [1, 1], [1, 0]], "run count 3 not divisible by 2 levels of column 0"),
    ([[0, -1], [1, 1], [2, 2]], "column 1 has symbols outside 0..2")])
def test_replace_column_checks_the_table_as_a_design(gf3, table, err):
    D = realize(gf3, 2, h_set(gf3, 2))
    with pytest.raises(ValueError, match=f"^replacement table: {err}$"):
        replace_column(D, 0, np.array(table))


def test_replace_preserves_a2_four_to_two(gf4, gf2):
    # swap a 4-level column for the saturated 4-run 2-level array
    from ssd.constructions import construct_thm4
    D = construct_thm4(gf4, 2)
    table = realize(gf2, 2, h_set(gf2, 2)).matrix
    out = replace_column(D, 3, table)
    assert out.levels == (4, 4, 4) + (2, 2, 2) + (4,) * 5
    assert a2_overall(out) == a2_overall(D)


def test_strength_and_is_oa(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    assert strength(H) == 2 and is_oa(H, 2) and not is_oa(H, 3)
    one = select_columns(H, [0])
    assert strength(one) == 1


def test_coincidences_saturated(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    delta = coincidences(H)
    off = delta[np.triu_indices(9, 1)]
    assert (off == 1).all()          # (N - s)/(s(s-1)) = 1
    assert coincidence_counts(H) == {1: 36}
    H3 = realize(gf3, 3, h_set(gf3, 3))
    off3 = coincidences(H3)[np.triu_indices(27, 1)]
    assert (off3 == 4).all()         # (27 - 3)/6


def test_coincidences_duplicated_rows_and_weights(gf3):
    M = np.array([[0, 0], [0, 0], [1, 1], [1, 2], [2, 1], [2, 2]])
    D = Design(M, (3, 3))
    delta = coincidences(D)
    assert delta[0, 1] == 2          # duplicated rows agree everywhere
    w = coincidences(D, weights=D.levels)
    assert w[0, 1] == 6


def _dense_joint(D):
    """Joint coincidence histogram from one dense matrix per level group."""
    from collections import Counter
    from ssd.design_core import level_groups
    upper = np.triu_indices(D.N, 1)
    per_group = [coincidences(select_columns(
        D, [k for k, t in enumerate(D.levels) if t == s]))[upper]
        for s, _ in level_groups(D)]
    return dict(sorted(Counter(zip(*(g.tolist() for g in per_group))).items()))


def test_joint_coincidences_match_dense_reference(gf3, gf9, monkeypatch):
    from ssd import design_core
    from ssd.design_core import joint_coincidence_counts
    equal = realize(gf3, 3, h_set(gf3, 3) + q1_star(gf3, 3))
    mixed = replace_column(realize(gf9, 2, h_set(gf9, 2)), 0,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    dup = Design([[0, 0, 1], [0, 0, 1], [1, 1, 0], [1, 1, 0]], (2, 2, 2))
    for D in (equal, mixed, dup):
        want = _dense_joint(D)
        assert joint_coincidence_counts(D) == want
        vals, counts = np.unique(coincidences(D)[np.triu_indices(D.N, 1)],
                                 return_counts=True)
        assert coincidence_counts(D) == dict(zip(vals.tolist(), counts.tolist()))
        # several row blocks, and the np.unique reduction in place of bincount
        for name, value in (("COINCIDENCE_BLOCK_CELLS", 2 * D.N),
                            ("JOINT_BINS_MAX", 0)):
            with monkeypatch.context() as mp:
                mp.setattr(design_core, name, value)
                assert joint_coincidence_counts(D) == want
    assert list(joint_coincidence_counts(equal)) == [(k,) for k in
                                                     coincidence_counts(equal)]


def test_design_copies_writable_input():
    a = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    v = a[:]
    D = Design(a, [2, 2])
    assert a2_overall(D) == 0
    v[:, 1] = v[:, 0]            # the caller's array stays writable ...
    assert a2_overall(Design(a, [2, 2])) == 1
    # ... and the design and its matrix do not follow it
    assert (D.matrix[:, 0] != D.matrix[:, 1]).any()
    assert a2_overall(D) == 0 == a2_overall(Design(D.matrix.copy(), [2, 2]))
    assert not D.matrix.flags.writeable
    # a design's own read-only matrix is shared, not copied
    assert Design(D.matrix, D.levels).matrix is D.matrix
    # and the design holds nothing else: no evaluation state
    assert Design.__slots__ == ("matrix", "levels", "labels", "is_balanced")


def test_classify_pair_kinds(gf3):
    D = realize(gf3, 2, h_set(gf3, 2) + q1_star(gf3, 2) + [h_set(gf3, 2)[0]])
    # columns: 0..3 linear, 4..6 quadratic, 7 duplicates column 0
    assert classify_pair(D, 0, 1).kind == "orthogonal"
    assert classify_pair(D, 0, 7).kind == "fully_aliased"
    assert classify_pair(D, 0, 7).a2 == F(2)
    semi = classify_pair(D, 1, 4)    # X2 against X1^2+X2
    assert semi.kind == "semi_orthogonal" and semi.a2 == F(2, 3)


def test_classify_mixed_levels(gf3):
    M = np.zeros((6, 2), dtype=int)
    M[:, 0] = [0, 0, 1, 1, 2, 2]
    M[:, 1] = [0, 1, 0, 1, 0, 1]
    D = Design(M, (3, 2))
    assert classify_pair(D, 0, 1).kind == "orthogonal"
    M2 = M.copy()
    M2[:, 1] = [0, 0, 1, 1, 0, 1]
    got = classify_pair(Design(M2, (3, 2)), 0, 1)
    assert got.kind == "partial" and got.a2 > 0


def test_cell_table_margins(gf3):
    D = realize(gf3, 2, h_set(gf3, 2) + q1_star(gf3, 2))
    tab = cell_table(D, 1, 4)
    assert tab.sum() == 9
    assert (tab.sum(axis=1) == 3).all() and (tab.sum(axis=0) == 3).all()


def test_remove_fully_aliased_keeps_earlier(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    twice = column_juxtapose(H, H)
    cleaned = remove_fully_aliased(twice)
    assert cleaned.m == 4
    assert (cleaned.matrix == H.matrix).all()
    assert not fully_aliased_pairs(cleaned)
    assert remove_fully_aliased(H) is H


def test_text_format_round_trip(gf5):
    D = realize(gf5, 2, h_set(gf5, 2))
    text = design_to_text(D)
    assert text.splitlines()[0] == "# ssd v1"
    back = design_from_text(text)
    assert (back.matrix == D.matrix).all() and back.levels == D.levels
    assert design_to_text(back) == text


def per_row_text(D):
    """The text format written one string per symbol and one join per row."""
    lines = ["# ssd v1", f"{D.N} {D.m}", " ".join(map(str, D.levels))]
    lines += [" ".join(map(str, row)) for row in D.matrix.tolist()]
    return "\n".join(lines) + "\n"


@st.composite
def text_designs(draw):
    """Random symbols (balance not required) with one- to four-digit levels
    mixed, and up to 120000 cells, so a design spans one or several row
    blocks."""
    N = draw(st.sampled_from([12, 60, 1200, 4096]))
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    pool = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=4))
    m = draw(st.integers(0, min(400, 120_000 // N)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice(pool, size=m)
    matrix = (rng.random((N, m)) * levels).astype(np.int64)
    return Design(matrix, levels, require_balanced=False)


@settings(max_examples=40, deadline=None)
@given(text_designs())
def test_text_writer_matches_per_row_join(tmp_path_factory, D):
    want = per_row_text(D)
    assert design_to_text(D) == want
    path = tmp_path_factory.mktemp("text") / "d.ssd"
    write_design(D, path)
    assert path.read_bytes() == want.encode("ascii")
    if not D.m:
        return      # the reader takes the empty levels line for a blank one
    back = read_design(path, allow_unbalanced=True)
    assert back.matrix.shape == D.matrix.shape and back.levels == D.levels
    assert (back.matrix == D.matrix).all()
    assert back.matrix.dtype == np.min_scalar_type(max(D.levels) - 1)


@pytest.mark.parametrize("token,verdict", [
    ("-1", "column 0 has symbols outside 0..1"),
    ("+1", None),
    ("1.0", "malformed design file: could not convert string '1.0' to int32"),
    ("70000", "column 0 has symbols outside 0..1"),
    (str(10**24), "malformed design file: could not convert string "
                  f"'{10**24}' to int32")])
def test_reader_verdict_on_a_body_token(token, verdict):
    """A symbol the int32 body holds reaches the Design's range check;
    one it cannot hold, or one that is not an integer, is malformed."""
    text = f"# ssd v1\n2 1\n2\n{token}\n0\n"
    if verdict is None:
        assert design_from_text(text).matrix.tolist() == [[1], [0]]
        return
    with pytest.raises(ValueError) as exc:
        design_from_text(text, allow_unbalanced=True)
    assert str(exc.value).startswith(verdict)


def test_text_writer_spans_row_blocks(gf4):
    D = realize(gf4, 6, h_set(gf4, 6))     # 4096 x 1365: 49 row blocks
    assert D.N > MATRIX_BLOCK_CELLS // D.m
    assert design_to_text(D) == per_row_text(D)


def test_label_count_checked_before_any_label_is_evaluated(gf2, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("a label was evaluated")
    monkeypatch.setattr(design_core, "eval_labels", evaluated)
    # 4096 runs, 8189 columns: construct --theorem 4 --s 2 --n 12
    with pytest.raises(ValueError, match="design size 4096x8189 exceeds"):
        realize(gf2, 12, h_set(gf2, 12) + q1_star(gf2, 12))
    # 8191 labels, of which branching removes at least one
    with pytest.raises(ValueError, match="keeps more than the supported 4096"):
        branch_fraction(gf2, 13, h_set(gf2, 13), unit_form(13, 0), [0])


def test_text_format_rejects_unbalanced_unless_allowed():
    text = "# ssd v1\n4 1\n2\n0\n0\n0\n1\n"
    with pytest.raises(ValueError, match="unbalanced"):
        design_from_text(text)
    D = design_from_text(text, allow_unbalanced=True)
    assert not D.is_balanced


def test_text_format_rejects_malformed():
    with pytest.raises(ValueError, match="header"):
        design_from_text("4 1\n2\n0\n0\n1\n1\n")
    with pytest.raises(ValueError, match="rows"):
        design_from_text("# ssd v1\n4 1\n2\n0\n1\n")
    for body in ("0 1\n1\n", "0 1\n1 1.0\n", "0 1\n1 #1\n",
                 f"0 1\n1 {10**24}\n"):
        with pytest.raises(ValueError, match="malformed design file"):
            design_from_text("# ssd v1\n2 2\n2 2\n" + body)



def test_read_design_reads_the_open_file(tmp_path):
    """The file and its text give the same design; blank lines and
    surrounding spaces are skipped in the header and the body alike."""
    text = "\n  # ssd v1\n\n4 2 \n 2 2\n0 1\n\n1 0\n  0 0\n1 1\n\n"
    path = tmp_path / "d.ssd"
    path.write_text(text)
    for D in (read_design(path), design_from_text(text)):
        assert D.matrix.tolist() == [[0, 1], [1, 0], [0, 0], [1, 1]]
        assert D.levels == (2, 2)
    path.write_text("# ssd v1\n2 2\n2 2\n0 1\n1 1.0\n")
    with pytest.raises(ValueError, match="malformed design file"):
        read_design(path)
    for text in ("# ssd v1\n4 1\n2\n", "# ssd v1\n4 1\n", "# ssd v1\n"):
        with pytest.raises(ValueError, match="malformed design file"):
            design_from_text(text)

MEASURE_COINCIDENCE_RSS = """
import resource
from ssd.constructions import construct_thm4
from ssd.design_core import coincidence_counts
from ssd.gf import default_field
D = construct_thm4(default_field(64), 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
counts = coincidence_counts(D)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(D.N, D.m, (after - before) // 1024, counts)
"""


@pytest.mark.slow
def test_coincidence_pass_memory_at_4096_runs():
    """The row-tiled pass on GF(64) thm4 (4096 x 129, one-hot 4096 x 8256)
    holds the one-hot matrix and one row block, never N x N: the dense
    matrix and its integer copy raised peak RSS by about 650 MB."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import ssd
    env = dict(os.environ, PYTHONPATH=str(Path(ssd.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", MEASURE_COINCIDENCE_RSS],
                         capture_output=True, text=True, env=env, check=True)
    N, m, grown_mb, counts = out.stdout.split(maxsplit=3)
    assert (int(N), int(m)) == (4096, 129)
    assert counts.strip() == "{1: 129024, 2: 8257536}"
    assert int(grown_mb) < 400
