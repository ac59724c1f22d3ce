from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import design_core, gf, poly_labels
from ssd.criteria import aggregate_stats, strength
from ssd.cli import run
from ssd.design_core import (TEXT_BLOCK_CELLS, Design, branch_fraction,
                             design_sums, joint_coincidences, read_design,
                             realize, remove_fully_aliased, replace_column,
                             select_columns, write_design)
from ssd.gf import default_field
from ssd.oracle import (classify_pair, coincidences, fully_aliased_pairs,
                        is_oa, pair_table)
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


def test_design_rejects_zero_columns():
    # such a design would be written as a file that cannot be read back
    message = "^a design needs at least one column$"
    for matrix in (np.zeros((3, 0), dtype=int), np.zeros((3, 0))):
        with pytest.raises(ValueError, match=message):
            Design(matrix, [])
    with pytest.raises(ValueError, match="at least one column"):
        select_columns(Design([[0], [1]], [2]), [])


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


@st.composite
def designs_with_a_planted_fault(draw):
    """Balanced designs whose levels divide N, up to N itself, mixed; in
    some, one symbol of one column is moved to another level, so that
    column alone is unbalanced."""
    N = draw(st.sampled_from([4, 6, 8, 12, 16, 24]))
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    levels = draw(st.lists(st.sampled_from(divisors), min_size=1, max_size=10))
    cols = [draw(st.permutations([v for v in range(s) for _ in range(N // s)]))
            for s in levels]
    matrix = np.array(cols).T
    bad = draw(st.none() | st.integers(0, len(levels) - 1))
    if bad is not None:
        r = draw(st.integers(0, N - 1))
        matrix[r, bad] = (matrix[r, bad] + 1) % levels[bad]
    return matrix, levels


def first_unbalanced_by_column(matrix, levels):
    """The first column whose per-column bincount is not flat, or None."""
    N = len(matrix)
    return next((i for i, s in enumerate(levels)
                 if (np.bincount(matrix[:, i], minlength=s) != N // s).any()),
                None)


@settings(max_examples=200, deadline=None)
@given(designs_with_a_planted_fault(), st.integers(1, 64), st.integers(1, 64))
def test_balance_tiles_name_the_first_unbalanced_column(case, block, bins):
    """Row blocks of `block` symbols and column tiles of at most `bins`
    bins (or one column alone) give the per-column verdict."""
    matrix, levels = case
    expected = first_unbalanced_by_column(matrix, levels)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_core, "MATRIX_BLOCK_CELLS", block)
        mp.setattr(design_core, "BALANCE_BINS", bins)
        assert Design(matrix, levels, require_balanced=False).is_balanced \
            == (expected is None)
        if expected is not None:
            with pytest.raises(ValueError,
                               match=f"^column {expected} is unbalanced$"):
                Design(matrix, levels)


def test_balance_of_many_level_columns_in_bin_tiles():
    """64 columns of 4096 levels at 4096 runs sum to 4 * BALANCE_BINS
    levels: the check counts them in tiles, and names the column at fault
    in a later tile, not the first column of that tile."""
    N, m = 4096, 64
    assert N * m > design_core.BALANCE_BINS
    rng = np.random.default_rng(7)
    matrix = np.array([rng.permutation(N) for _ in range(m)], dtype=np.uint16).T
    assert Design(matrix, [N] * m).is_balanced
    matrix[5, 41] = matrix[6, 41]
    assert first_unbalanced_by_column(matrix, [N] * m) == 41
    with pytest.raises(ValueError, match="^column 41 is unbalanced$"):
        Design(matrix, [N] * m)


def test_max_runs_is_the_largest_field_order():
    """MAX_RUNS is spelled out so that design_core need not import gf."""
    assert design_core.MAX_RUNS == gf.MAX_ORDER


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


def juxtapose(*designs):
    """The designs side by side."""
    return Design(np.hstack([D.matrix for D in designs]),
                  sum((D.levels for D in designs), ()))


def test_lemma6_juxtaposition_shift(gf3):
    # appending a saturated strength-2 array adds m(s-1) to the overall A2
    H = realize(gf3, 2, h_set(gf3, 2))
    for D in (realize(gf3, 2, q1_star(gf3, 2)),      # strength 2, A2 = 0
              juxtapose(H, H)):                      # aliased, A2 > 0
        both = juxtapose(D, H)
        assert aggregate_stats(both).A2 == aggregate_stats(D).A2 + D.m * 2


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


@pytest.mark.parametrize("matrix", [
    [[0.5], [1.7]], [[0, 0], [1, 0.5]], [[0], [np.nan]], [[np.inf], [0]],
    [[0], [-np.inf]]], ids=["fractions", "one-fraction", "nan", "inf", "-inf"])
def test_design_refuses_symbols_that_are_not_integers(matrix):
    """A cast would truncate 0.5 to 0 and warn on NaN, so a float matrix
    is checked before it is narrowed, naming the first column at fault."""
    col = len(matrix[0]) - 1
    with pytest.raises(ValueError, match=f"^column {col} has symbols that "
                                         "are not integers$"):
        Design(np.array(matrix), [2] * len(matrix[0]))


def test_design_casts_integral_floats():
    D = Design(np.array([[0.0, 1.0], [1.0, 0.0]]), [2, 2])
    assert D.matrix.tolist() == [[0, 1], [1, 0]]
    assert D.matrix.dtype == np.uint8


@pytest.mark.parametrize("table", [[[0.9], [1.2]], [[0, 1], [1, 0.5]],
                                   [[np.nan], [1]], [[0], [np.inf]]],
                         ids=["fractions", "one-fraction", "nan", "inf"])
def test_replace_column_refuses_a_table_that_is_not_integral(gf2, table):
    D = realize(gf2, 2, h_set(gf2, 2))
    col = len(table[0]) - 1
    with pytest.raises(ValueError, match=f"^replacement table: column {col} "
                                         "has symbols that are not integers$"):
        replace_column(D, 0, table)
    # integral floats are cast
    out = replace_column(D, 0, [[1.0], [0.0]])
    assert out.matrix[:, 0].tolist() == (1 - D.matrix[:, 0]).tolist()


def test_replace_preserves_a2_four_to_two(gf4, gf2):
    # swap a 4-level column for the saturated 4-run 2-level array
    from ssd.constructions import construct_thm4
    D = construct_thm4(gf4, 2)
    table = realize(gf2, 2, h_set(gf2, 2)).matrix
    out = replace_column(D, 3, table)
    assert out.levels == (4, 4, 4) + (2, 2, 2) + (4,) * 5
    assert aggregate_stats(out).A2 == aggregate_stats(D).A2


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
    assert design_sums(H)[2] == {(1,): 36}
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


def _random_balanced(N, levels, seed):
    """A design of random balanced columns of the given levels."""
    rng = np.random.default_rng(seed)
    return Design(np.array([rng.permutation(np.arange(N) % s)
                            for s in levels]).T, levels)


def test_joint_coincidences_match_dense_reference(gf3, gf9, call_counter):
    equal = realize(gf3, 3, h_set(gf3, 3) + q1_star(gf3, 3))
    mixed = replace_column(realize(gf9, 2, h_set(gf9, 2)), 0,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    dup = Design([[0, 0, 1], [0, 0, 1], [1, 1, 0], [1, 1, 0]], (2, 2, 2))
    # two columns per divisor level of 60: 11 groups whose observed spans
    # multiply to far more than the 1770 row pairs
    wide = _random_balanced(60, [s for s in range(2, 61) if 60 % s == 0
                                 for _ in range(2)], 29)
    calls, count = call_counter
    count(np, "bincount")
    for D, bincounts in ((equal, 1), (mixed, 1), (dup, 1), (wide, 0)):
        want = _dense_joint(D)
        calls.clear()
        got = joint_coincidences(D)
        # one block: bincount when its keys' spans fit its row pairs, the
        # key tuples counted directly otherwise
        assert calls["bincount"] == bincounts
        assert got == want
        assert all(type(k) is int for key in got for k in key)
        assert design_sums(D)[2] == want
        vals, counts = np.unique(coincidences(D)[np.triu_indices(D.N, 1)],
                                 return_counts=True)
        assert aggregate_stats(D).coincidences == dict(
            zip(vals.tolist(), counts.tolist()))
        # several row blocks, and one-row blocks, whose last has no row pairs
        for cells in (2 * D.N, D.N):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(design_core, "COINCIDENCE_BLOCK_CELLS", cells)
                assert design_sums(D)[2] == want
    assert list(design_sums(equal)[2]) == [
        (k,) for k in aggregate_stats(equal).coincidences]


@st.composite
def divisor_level_designs(draw):
    """Random balanced designs whose levels are divisors of N, 1 to 3
    columns of each, in a drawn column order."""
    N = draw(st.sampled_from([12, 24, 36, 60]))
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    kept = draw(st.lists(st.sampled_from(divisors), min_size=1, unique=True))
    levels = [s for s in kept for _ in range(draw(st.integers(1, 3)))]
    levels = draw(st.permutations(levels))
    return _random_balanced(N, levels, draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=40, deadline=None)
@given(divisor_level_designs())
def test_joint_coincidences_of_drawn_profiles(D):
    want = _dense_joint(D)
    for cells in (D.N, 7 * D.N, design_core.COINCIDENCE_BLOCK_CELLS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(design_core, "COINCIDENCE_BLOCK_CELLS", cells)
            assert joint_coincidences(D) == want


def test_design_copies_writable_input():
    a = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    v = a[:]
    D = Design(a, [2, 2])

    def a2(D):
        return aggregate_stats(D).A2
    assert a2(D) == 0
    v[:, 1] = v[:, 0]            # the caller's array stays writable ...
    assert a2(Design(a, [2, 2])) == 1
    # ... and the design and its matrix do not follow it
    assert (D.matrix[:, 0] != D.matrix[:, 1]).any()
    assert a2(D) == 0 == a2(Design(D.matrix.copy(), [2, 2]))
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
    tab = np.array(pair_table(D, 1, 4))
    assert tab.sum() == 9
    assert (tab.sum(axis=1) == 3).all() and (tab.sum(axis=0) == 3).all()
    assert classify_pair(D, 1, 4).a2 == F(3 * 3 * int((tab * tab).sum()) - 81, 81)


def test_remove_fully_aliased_keeps_earlier(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    twice = juxtapose(H, H)
    cleaned = remove_fully_aliased(twice)
    assert cleaned.m == 4
    assert (cleaned.matrix == H.matrix).all()
    assert not fully_aliased_pairs(cleaned)
    assert remove_fully_aliased(H) is H


def written(D, tmp_path):
    """The text write_design writes for D."""
    path = tmp_path / "written.ssd"
    write_design(D, path)
    return path.read_text(encoding="ascii")


def read_text(text, tmp_path, **kwargs):
    """The design read_design reads from a file holding text."""
    path = tmp_path / "read.ssd"
    path.write_text(text, encoding="ascii")
    return read_design(path, **kwargs)


def test_text_format_round_trip(gf5, tmp_path):
    D = realize(gf5, 2, h_set(gf5, 2))
    text = written(D, tmp_path)
    assert text.splitlines()[0] == "# ssd v1"
    back = read_text(text, tmp_path)
    assert (back.matrix == D.matrix).all() and back.levels == D.levels
    assert written(back, tmp_path) == text


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
    m = draw(st.integers(1, min(400, 120_000 // N)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = rng.choice(pool, size=m)
    matrix = (rng.random((N, m)) * levels).astype(np.int64)
    return Design(matrix, levels, require_balanced=False)


@settings(max_examples=40, deadline=None)
@given(text_designs())
def test_text_writer_matches_per_row_join(tmp_path_factory, D):
    want = per_row_text(D)
    path = tmp_path_factory.mktemp("text") / "d.ssd"
    write_design(D, path)
    assert path.read_bytes() == want.encode("ascii")
    back = read_design(path, allow_unbalanced=True)
    assert back.matrix.shape == D.matrix.shape and back.levels == D.levels
    assert (back.matrix == D.matrix).all()
    assert back.matrix.dtype == np.min_scalar_type(max(D.levels) - 1)


@pytest.mark.parametrize("token,verdict", [
    ("-1", "column 0 has symbols outside 0..1"),
    ("+1", None),
    ("0001", None),
    ("0007", "column 0 has symbols outside 0..1"),
    ("1.0", "malformed design file: could not convert string '1.0' to int32"),
    ("1e3", "malformed design file: could not convert string '1e3' to int32"),
    ("70000", "column 0 has symbols outside 0..1"),
    (str(10**24), "malformed design file: could not convert string "
                  f"'{10**24}' to int32")])
def test_reader_verdict_on_a_body_token(token, verdict, tmp_path):
    """A symbol the int32 body holds reaches the Design's range check;
    one it cannot hold, or one that is not an integer, is malformed.
    Leading zeros are read past: 0007 is 7, out of range."""
    text = f"# ssd v1\n2 1\n2\n{token}\n0\n"
    if verdict is None:
        assert read_text(text, tmp_path).matrix.tolist() == [[1], [0]]
        return
    with pytest.raises(ValueError) as exc:
        read_text(text, tmp_path, allow_unbalanced=True)
    assert str(exc.value).startswith(verdict)


def test_text_writer_spans_row_blocks(gf4, tmp_path):
    D = realize(gf4, 6, h_set(gf4, 6))     # 4096 x 1365: 342 row blocks
    assert D.N > TEXT_BLOCK_CELLS // D.m
    assert written(D, tmp_path) == per_row_text(D)


def test_label_count_checked_before_any_label_is_evaluated(gf2, monkeypatch):
    def evaluated(*args, **kwargs):
        raise AssertionError("a label was evaluated")
    monkeypatch.setattr(poly_labels, "eval_labels", evaluated)
    # 4096 runs, 8189 columns: construct --theorem 4 --s 2 --n 12
    with pytest.raises(ValueError, match="design size 4096x8189 exceeds"):
        realize(gf2, 12, h_set(gf2, 12) + q1_star(gf2, 12))
    # 8191 labels, of which branching removes at least one
    with pytest.raises(ValueError, match="keeps more than the supported 4096"):
        branch_fraction(gf2, 13, h_set(gf2, 13), unit_form(13, 0), [0])


def test_text_format_rejects_unbalanced_unless_allowed(tmp_path):
    text = "# ssd v1\n4 1\n2\n0\n0\n0\n1\n"
    with pytest.raises(ValueError, match="unbalanced"):
        read_text(text, tmp_path)
    D = read_text(text, tmp_path, allow_unbalanced=True)
    assert not D.is_balanced


def test_text_format_rejects_malformed(tmp_path):
    with pytest.raises(ValueError, match="header"):
        read_text("4 1\n2\n0\n0\n1\n1\n", tmp_path)
    with pytest.raises(ValueError, match="rows"):
        read_text("# ssd v1\n4 1\n2\n0\n1\n", tmp_path)
    for body in ("0 1\n1\n", "0 1\n1 1.0\n", "0 1\n1 #1\n",
                 f"0 1\n1 {10**24}\n"):
        with pytest.raises(ValueError, match="malformed design file"):
            read_text("# ssd v1\n2 2\n2 2\n" + body, tmp_path)



def test_read_design_reads_the_open_file(tmp_path):
    """Blank lines and surrounding spaces are skipped in the header and
    the body alike; a file that ends in or before its header is
    malformed."""
    text = "\n  # ssd v1\n\n4 2 \n 2 2\n0 1\n\n1 0\n  0 0\n1 1\n\n"
    D = read_text(text, tmp_path)
    assert D.matrix.tolist() == [[0, 1], [1, 0], [0, 0], [1, 1]]
    assert D.levels == (2, 2)
    for text in ("# ssd v1\n2 2\n2 2\n0 1\n1 1.0\n", "# ssd v1\n4 1\n2\n",
                 "# ssd v1\n4 1\n", "# ssd v1\n"):
        with pytest.raises(ValueError, match="malformed design file"):
            read_text(text, tmp_path)


@pytest.fixture
def small_read_blocks(monkeypatch):
    """Row blocks of two rows of two symbols in read_design."""
    monkeypatch.setattr(design_core, "TEXT_BLOCK_CELLS", 4)


def body_text(rows, levels=(2, 2)):
    """A design file of the given body lines, N the number of lines."""
    return (f"# ssd v1\n{len(rows)} {len(levels)}\n"
            f"{' '.join(map(str, levels))}\n" + "\n".join(rows) + "\n")


def whole_body_verdict(rows):
    """The verdict of one np.loadtxt over the whole body, which a reader
    that parses row blocks must give whatever the block size."""
    lines = [r + "\n" for r in rows]
    with pytest.raises(ValueError) as exc:
        np.loadtxt(lines, dtype=np.int32, ndmin=2, comments=None)
    return f"malformed design file: {exc.value}"


BALANCED_ROWS = ["0 1", "1 0", "0 0", "1 1", "0 1", "1 0", "0 0", "1 1"]


def test_reader_parses_row_blocks(small_read_blocks, tmp_path, call_counter):
    """The writer's form is parsed block by block with no whole-body
    parse; any other spacing is parsed whole, once, to the same matrix."""
    calls, count = call_counter
    count(design_core, "_parse_body", "_parse_rows")
    want = [list(map(int, r.split())) for r in BALANCED_ROWS]
    D = read_text(body_text(BALANCED_ROWS), tmp_path)
    assert D.matrix.tolist() == want
    assert D.matrix.dtype == np.uint8 and not D.matrix.flags.writeable
    assert calls == {"_parse_rows": 4}     # four blocks, no whole-body parse
    calls.clear()
    tabbed = [r.replace(" ", "\t") for r in BALANCED_ROWS]
    D = read_text(body_text(tabbed), tmp_path)
    assert D.matrix.tolist() == want and D.matrix.dtype == np.uint8
    assert calls == {"_parse_rows": 1, "_parse_body": 1}


@pytest.mark.parametrize("raw,message", [
    (b"# ssd v1\n4 1\n2\n0\n1\n\xc3\xa9\n1\n",
     "'ascii' codec can't decode byte 0xc3 in position 19: ordinal not in "
     "range(128)"),
    (b"# ssd v1\n4 1\n2\xff\n0\n1\n0\n1\n",
     "'ascii' codec can't decode byte 0xff in position 14: ordinal not in "
     "range(128)")])
def test_reader_reports_a_byte_that_is_not_ascii(raw, message, tmp_path,
                                                 capsys):
    """The codec names the byte and its position in the file, in the
    body and in the header alike, with no malformed-file prefix."""
    path = tmp_path / "bytes.ssd"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as exc:
        read_design(path)
    assert str(exc.value) == message
    assert run(["export", str(path), "--out", str(tmp_path / "x.ssd")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.ssd").exists()


def respaced(text, variant):
    """The body of a written design file respaced in one of the ways the
    writer never spaces it."""
    *head, body = text.split("\n", 3)
    rows = body.splitlines()
    if variant == "crlf":
        body = "\r\n".join(rows) + "\r\n"
    elif variant == "tabs":
        body = "\n".join(r.replace(" ", "\t") for r in rows) + "\n"
    elif variant == "double spaces":
        body = "\n".join(r.replace(" ", "  ") for r in rows) + "\n"
    elif variant == "trailing spaces":
        body = "\n".join(" " + r + " " for r in rows) + "\n"
    elif variant == "leading zeros":
        body = "\n".join(" ".join("00" + t for t in r.split())
                         for r in rows) + "\n"
    elif variant == "blank lines":
        body = "\n\n".join(rows) + "\n\n"
    else:
        assert variant == "no final newline"
        body = body[:-1]
    return "\n".join(head) + "\n" + body


@settings(max_examples=15, deadline=None)
@given(text_designs(),
       st.sampled_from(["crlf", "tabs", "double spaces", "trailing spaces",
                        "leading zeros", "blank lines", "no final newline"]))
def test_reader_reads_any_spacing_as_the_written_file(tmp_path_factory, D,
                                                      variant):
    path = tmp_path_factory.mktemp("spacing") / "d.ssd"
    write_design(D, path)
    path.write_bytes(respaced(path.read_text(encoding="ascii"),
                              variant).encode("ascii"))
    back = read_design(path, allow_unbalanced=True)
    assert back.levels == D.levels
    assert back.matrix.dtype == D.matrix.dtype
    assert np.array_equal(back.matrix, D.matrix)


def test_reader_names_a_malformed_token_in_a_later_block(small_read_blocks,
                                                          tmp_path):
    rows = BALANCED_ROWS[:5] + ["1 x"] + BALANCED_ROWS[6:]
    with pytest.raises(ValueError) as exc:
        read_text(body_text(rows), tmp_path)
    assert str(exc.value) == whole_body_verdict(rows)
    assert "'x' to int32 at row 5, column 2" in str(exc.value)


def test_reader_names_the_first_column_out_of_range_over_all_rows(
        small_read_blocks, tmp_path):
    """Column 1 is out of range in the first block and column 0 in the
    third: the verdict names column 0, as Design's range check does."""
    rows = ["0 2"] + BALANCED_ROWS[1:4] + ["-1 1"] + BALANCED_ROWS[5:]
    with pytest.raises(ValueError) as exc:
        read_text(body_text(rows), tmp_path)
    assert str(exc.value) == "column 0 has symbols outside 0..1"
    matrix = np.array([[int(v) for v in r.split()] for r in rows])
    with pytest.raises(ValueError) as exc:
        Design(matrix, (2, 2))
    assert str(exc.value) == "column 0 has symbols outside 0..1"


def test_reader_rejects_rows_of_unequal_length_across_blocks(
        small_read_blocks, tmp_path):
    rows = BALANCED_ROWS[:2] + ["0 0 1", "1 1 0"] + BALANCED_ROWS[4:]
    with pytest.raises(ValueError) as exc:
        read_text(body_text(rows), tmp_path)
    assert str(exc.value) == whole_body_verdict(rows)
    assert "columns changed from 2 to 3" in str(exc.value)
    # every row of one other length: the shape is wrong, not the body
    with pytest.raises(ValueError, match="expected 8 rows of 2 symbols"):
        read_text(body_text([r + " 0" for r in BALANCED_ROWS]), tmp_path)


@pytest.mark.parametrize("blanks", [1, 2, 5])
def test_reader_skips_blank_lines_between_blocks(small_read_blocks, tmp_path,
                                                 blanks):
    """Blank lines inside a block, and blocks that are all blank, are
    skipped; missing or extra rows are still counted."""
    rows = BALANCED_ROWS[:2] + ["  "] * blanks + BALANCED_ROWS[2:] + [""]
    text = body_text(rows).replace(f"{len(rows)} 2", "8 2", 1)
    D = read_text(text, tmp_path)
    assert D.matrix.tolist() == [list(map(int, r.split()))
                                 for r in BALANCED_ROWS]
    for n in (6, 10):
        with pytest.raises(ValueError, match=f"expected {n} rows of 2"):
            read_text(text.replace("8 2", f"{n} 2", 1), tmp_path)


def test_reader_reads_a_4096_level_column_as_uint16(small_read_blocks,
                                                    tmp_path, call_counter):
    calls, count = call_counter
    count(design_core, "_parse_body")
    rows = [f"{i} {i % 2}" for i in range(4096)]
    D = read_text(body_text(rows, (4096, 2)), tmp_path)
    assert D.matrix.dtype == np.uint16
    assert D.matrix[:, 0].tolist() == list(range(4096))
    assert not calls                        # four digits are the writer's form
    rows[4000] = "4096 0"
    with pytest.raises(ValueError, match="column 0 has symbols outside "
                                         r"0\.\.4095"):
        read_text(body_text(rows, (4096, 2)), tmp_path, allow_unbalanced=True)


@pytest.mark.parametrize("rows,levels,verdict", [
    # a blank line counted as a row, and a row whose leading space stands
    # for a symbol: the separators and the digits add up (a two-digit
    # symbol makes up the digit), but a symbol is empty
    (["0", "", "10", "1"], (2,), "expected 4 rows of 1 symbols"),
    (["0 1", " 10", "1 0", "1 0"], (2, 2), "malformed design file: the "
                                           "number of columns changed")])
def test_reader_gives_an_empty_symbol_the_whole_body_verdict(
        small_read_blocks, tmp_path, rows, levels, verdict):
    with pytest.raises(ValueError) as exc:
        read_text(body_text(rows, levels), tmp_path, allow_unbalanced=True)
    assert str(exc.value).startswith(verdict)


def test_reader_reads_a_last_row_with_no_newline(small_read_blocks, tmp_path):
    """Here the last block is one row of digits alone, with no separator."""
    rows = ["0", "1", "2"] * 3
    D = read_text(body_text(rows, (3,))[:-1], tmp_path)
    assert D.matrix[:, 0].tolist() == [0, 1, 2] * 3


def test_reader_checks_the_header_size_before_allocating(tmp_path,
                                                         monkeypatch):
    def allocated(*args, **kwargs):
        raise AssertionError("an array was allocated")
    text = "# ssd v1\n100000 100000\n" + "2 " * 100000 + "\n0 1\n"
    for name in ("empty", "zeros", "full", "loadtxt"):
        monkeypatch.setattr(np, name, allocated)
    with pytest.raises(ValueError) as exc:
        read_text(text, tmp_path)
    assert str(exc.value) == ("design size 100000x100000 exceeds the "
                              "supported 4096x4096")


MEASURE_READ_HWM = """
import sys
from ssd.design_core import read_design


def hwm_mb():
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024


before = hwm_mb()
D = read_design(sys.argv[1])
print(D.N, D.m, D.matrix.dtype, hwm_mb() - before)
"""


@pytest.mark.slow
@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="reads VmHWM from /proc")
def test_read_memory_at_4096_by_4095(tmp_path):
    """Reading the 4096 x 4095 thm6 GF(4) n=6 k=3 file (33.5 MB of text,
    a 16.8 MB matrix) holds the lines, the matrix and one int32 row
    block: a whole-body int32 parse and its narrowed copy raised the
    reading process's peak resident memory by about 100 MB."""
    import os
    import subprocess
    import sys

    import ssd
    from ssd.constructions import construct_thm6
    path = tmp_path / "big.ssd"
    write_design(construct_thm6(default_field(4), 6, 3), path)
    env = dict(os.environ, PYTHONPATH=str(Path(ssd.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", MEASURE_READ_HWM, str(path)],
                         capture_output=True, text=True, env=env, check=True)
    N, m, dtype, grown_mb = out.stdout.split()
    assert (int(N), int(m), dtype) == (4096, 4095, "uint8")
    assert float(grown_mb) < 70


MEASURE_COINCIDENCE_RSS = """
import resource
from ssd.constructions import construct_thm4
from ssd.design_core import design_sums
from ssd.gf import default_field
D = construct_thm4(default_field(64), 2)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
counts = design_sums(D)[2]
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(D.N, D.m, (after - before) // 1024, counts)
"""


@pytest.mark.slow
def test_coincidence_pass_memory_at_4096_runs():
    """The kernel entry on GF(64) thm4 (4096 x 129, one-hot 4096 x 8256,
    cell-count route) holds the one-hot matrix, the pair vectors and one
    row block of the coincidence pass, never N x N: the dense matrix and
    its integer copy raised peak RSS by about 650 MB."""
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
    assert counts.strip() == "{(1,): 129024, (2,): 8257536}"
    assert int(grown_mb) < 400
