from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from ssd.constructions import (CATALOG_SPECS, catalog_verify,
                               construct_example3, construct_thm4,
                               construct_thm5, construct_thm6, construct_thm7,
                               construct_thm8, construct_thm9,
                               corollary2_check, dealias_check, load_appendix,
                               verify_appendix)
from ssd.criteria import a2_overall, a2_overall_from_pairs, projected_a2_histogram
from ssd.design_core import classify_pair, fully_aliased_pairs
from ssd.gf import Field, default_field
from ssd.poly_labels import h_set, label_str, parse_label, q1


def test_thm4_shapes_and_orthogonal_first_column():
    for s, n in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
        f = default_field(s)
        D = construct_thm4(f, n)
        t = (s**n - 1) // (s - 1)
        assert (D.N, D.m) == (s**n, 2 * t - 1)
        assert a2_overall(D) == s**n - s
        # the first column is orthogonal to every other column
        assert all(classify_pair(D, 0, j).a2 == 0 for j in range(1, D.m))
        assert not fully_aliased_pairs(D)


def test_thm4_semi_orthogonal_pair_counts():
    for s, n in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)):
        f = default_field(s)
        D = construct_thm4(f, n)
        semi = sum(1 for i in range(D.m) for j in range(i + 1, D.m)
                   if classify_pair(D, i, j).kind == "semi_orthogonal")
        if s % 2:
            assert semi == s * (s**n - s) // (s - 1)
        else:
            assert semi == s**n - s


@pytest.mark.parametrize("s,modulus", [
    (27, None), (27, (1, 2, 0, 1)), (29, None), (31, None),
    (32, None), (32, (1, 0, 1, 0, 0, 1)), (49, None), (49, (1, 0, 1))])
def test_closed_forms_above_25_levels(s, modulus):
    # thm4: A2 = s^2 - s; thm6 with k = 2: A2 = s^2 - 1, under any modulus
    f = Field(s, modulus)
    assert a2_overall_from_pairs(construct_thm4(f, 2)) == s * s - s
    assert a2_overall_from_pairs(construct_thm6(f, 2, 2)) == s * s - 1


def test_thm6_choice_independence():
    f = default_field(3)
    H = h_set(f, 3)
    ref = None
    for pair in ([H[0], H[1]], [H[0], H[2]], [H[5], H[11]]):
        hist = dict(projected_a2_histogram(construct_thm6(f, 3, 2, pair)))
        if ref is None:
            ref = hist
        assert hist == ref
    assert construct_thm5(f, 3, H[0], H[1]).m == 26


def test_thm6_validation():
    f = default_field(3)
    with pytest.raises(ValueError, match="distinct"):
        construct_thm6(f, 2, 2, [h_set(f, 2)[0]] * 2)
    with pytest.raises(ValueError, match="k must lie"):
        construct_thm6(f, 2, 1)
    with pytest.raises(ValueError, match="k must lie"):
        construct_thm6(f, 2, 5)


def test_thm7_odd_only_and_no_aliasing():
    with pytest.raises(ValueError, match="odd"):
        construct_thm7(default_field(4), 2, 2)
    f = default_field(3)
    D = construct_thm7(f, 2, 4)
    assert (D.N, D.m) == (9, 12)
    assert a2_overall(D) == 24
    assert not fully_aliased_pairs(D)


def test_thm7_checks_its_forms():
    # the form count, distinctness and k range are thm6's checks
    f = default_field(3)
    H = h_set(f, 3)
    with pytest.raises(ValueError, match="expected 2 forms, got 3"):
        construct_thm7(f, 3, 2, H[:3])
    with pytest.raises(ValueError, match="distinct"):
        construct_thm7(f, 3, 2, [H[1]] * 2)
    with pytest.raises(ValueError, match="k must lie"):
        construct_thm7(f, 3, 14)


def test_thm8_formulas():
    for s, n, k in ((3, 2, 2), (4, 2, 3), (5, 2, 4), (3, 3, 2)):
        f = default_field(s)
        D = construct_thm8(f, n, k)
        assert (D.N, D.m) == (k * s**(n - 1), (s**n - s) // (s - 1))
        assert a2_overall(D) == F((s**n - s) * (s - k), 2 * k)
        hist = projected_a2_histogram(D)
        assert hist.get(F(s - k, k), 0) == (s**n - s) // 2
    with pytest.raises(ValueError, match="kept level classes"):
        construct_thm8(default_field(3), 2, 3)


def test_thm9_branch_is_removed():
    f = default_field(3)
    D = construct_thm9(f, 3, 2)
    assert (D.N, D.m) == (18, 12)
    target = parse_label(f, "X1^2+X2", 3)
    assert all(label_str(f, lab) != "X1^2+X2" for lab in D.labels)
    assert target in q1(f, 3)


def test_example3_types():
    f = default_field(3)
    expected = {1: {F(0): 54, F(1, 6): 0, F(1, 2): 12},
                2: {F(0): 36, F(1, 6): 27, F(1, 2): 3},
                3: {F(0): 42, F(1, 6): 18, F(1, 2): 6}}
    seen = set()
    for lab in q1(f, 3):
        D, typ = construct_example3(f, lab)
        assert (D.N, D.m) == (18, 12)
        hist = projected_a2_histogram(D)
        got = {v: hist.get(v, 0) for v in expected[typ]}
        assert got == expected[typ], label_str(f, lab)
        seen.add(typ)
    assert seen == {1, 2, 3}
    with pytest.raises(ValueError, match="13 columns"):
        construct_example3(f, parse_label(f, "X2", 3))


def test_example3_type2_minimizes_worst_aliasing():
    f = default_field(3)
    worst = {}
    for lab in q1(f, 3):
        D, typ = construct_example3(f, lab)
        hist = projected_a2_histogram(D)
        worst[typ] = hist[F(1, 2)]
    assert worst[2] < worst[3] < worst[1]


def test_corollary2(gf3, gf5):
    for f, a2 in ((gf3, 24), (gf5, 240)):
        D, rep = corollary2_check(f)
        s = f.order
        assert (D.N, D.m) == (s * s, (s + 1) * s)
        # the two printed closed forms coincide; the design matches both
        assert rep["product_form"] == rep["pair_form"] == a2
        assert rep["matches_product_form"] and rep["matches_pair_form"]
        assert rep["per_column_degrees_ok"]
    with pytest.raises(ValueError, match="odd"):
        corollary2_check(default_field(4))


def test_dealias_bookkeeping_small(gf4):
    rep = dealias_check(gf4, 2, 5)
    assert rep["aliased_pairs"] == 10
    assert rep["m_after"] == 15
    assert rep["a2_after"] == 45 == rep["bound"]
    assert rep["achieves_bound"]


def test_dealias_check_runs_one_gram_pass(gf4, call_counter):
    """De-aliasing groups relabelled columns without a pair pass, so only
    the coincidences of the de-aliased design's A2 build a one-hot matrix."""
    from ssd import design_core
    calls, count = call_counter
    count(design_core, "_one_hot", "_cell_count_sums", "_gram_tile_sums")
    for n, k in ((2, 5), (3, 2)):
        calls.clear()
        rep = dealias_check(gf4, n, k)
        assert rep["achieves_bound"]
        assert calls == Counter({"_one_hot": 1})


def test_verify_design_runs_each_pass_once(catalog_rows, call_counter):
    from ssd import design_core
    from ssd.constructions import verify_design
    calls, count = call_counter
    count(design_core, "_row_coincidences", "_cell_count_sums",
          "_gram_tile_sums")
    for recipe, D in catalog_rows:
        calls.clear()
        assert verify_design(recipe, D).ok
        route = ("_cell_count_sums" if design_core.cells_sparse(D)
                 else "_gram_tile_sums")
        assert calls == Counter({"_row_coincidences": 1, route: 1}), recipe.row_id


def test_catalog_has_31_rows_and_verifies(catalog_rows):
    assert len(CATALOG_SPECS) == 31
    results = catalog_verify(rows=catalog_rows)
    for row in results:
        assert row.ok, f"{row.row_id}: {row.message}"


def test_no_shipped_design_has_aliased_pairs(catalog_rows):
    for recipe, D in catalog_rows:
        assert not fully_aliased_pairs(D), recipe.row_id


def test_appendix_files_verify():
    for which in (6, 7, 8):
        row = verify_appendix(which)
        assert row.ok, row.message


@pytest.mark.parametrize("which,col,failing", [
    (6, 0, ["s3/N9/m16/thm6/k4"]),
    (6, 1, ["s3/N9/m16/thm6/k4", "s3/N9/m12/thm7/k4"]),
    (7, 2, ["s4/N16/m15/thm6-dealias/k5"]),
    (8, 1, ["s5/N25/m36/thm6/k6", "s5/N25/m30/thm7/k6"])])
def test_appendix_with_swapped_symbols_fails(monkeypatch, which, col, failing):
    # swapping two different symbols of one column keeps it balanced but
    # moves its aliasing away from the catalog rows the file reproduces;
    # column 0 of table 6 is not in its quadratic-only sub-selection
    import ssd.constructions as constructions
    from ssd.design_core import Design
    D = load_appendix(which)
    M = D.matrix.copy()
    r = int(np.flatnonzero(M[:, col] != M[0, col])[0])
    M[[0, r], col] = M[[r, 0], col]
    monkeypatch.setattr(constructions, "load_appendix",
                        lambda w: Design(M, D.levels))
    row = verify_appendix(which)
    assert not row.ok
    assert row.row_id == f"bundled/appendix_table{which}.ssd"
    assert "histogram mismatch" in row.message
    named = {r.row_id for r in CATALOG_SPECS if f"{r.row_id}: " in row.message}
    assert named == set(failing)


def test_appendix_file_shapes():
    assert (load_appendix(6).N, load_appendix(6).m) == (9, 16)
    assert (load_appendix(7).N, load_appendix(7).m) == (16, 15)
    assert (load_appendix(8).N, load_appendix(8).m) == (25, 36)


def test_companion_arrays_have_constant_coincidences(gf3, gf4):
    # every saturated companion array shares the constant coincidence count
    # (N - s)/(s(s - 1)) of the linear family
    from ssd.design_core import coincidences, realize
    from ssd.poly_labels import qh
    for f, n in ((gf3, 2), (gf3, 3), (gf4, 2)):
        s = f.order
        expect = (s**n - s) // (s * (s - 1))
        for h in h_set(f, n):
            D = realize(f, n, qh(f, h, n))
            off = coincidences(D)[np.triu_indices(D.N, 1)]
            assert (off == expect).all()


def test_branch_families_distinguish_the_two_saturated_arrays(gf3):
    # the linear and quadratic saturated arrays yield different fraction
    # histograms at n = 3, witnessing that they are structurally different
    h_frac = dict(projected_a2_histogram(construct_thm8(gf3, 3, 2)))
    q_frac = dict(projected_a2_histogram(construct_thm9(gf3, 3, 2)))
    assert h_frac != q_frac
