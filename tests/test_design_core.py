from fractions import Fraction as F

import numpy as np
import pytest

from ssd.criteria import a2_overall
from ssd.design_core import (Design, branch_fraction, cell_table,
                             classify_pair, coincidences, column_juxtapose,
                             design_from_text, design_to_text,
                             fully_aliased_pairs, is_oa, realize,
                             remove_fully_aliased, replace_column,
                             row_juxtapose, select_columns, strength)
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
    out = replace_column(D, 1, oa)
    assert out.m == 5 and out.levels == (3, 3, 3, 3, 3)


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
