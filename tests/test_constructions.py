import dataclasses
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import criteria
from ssd.bounds import certify
from ssd.constructions import (CATALOG_SPECS, Recipe, construct_example3,
                               construct_thm4, construct_thm6, construct_thm7,
                               construct_thm8, construct_thm9, load_appendix,
                               verify_appendix, verify_design)
from ssd.criteria import aggregate_stats
from ssd.design_core import (Design, design_sums, remove_fully_aliased,
                             replace_column)
from ssd.gf import Field, default_field
from ssd.oracle import classify_pair, fully_aliased_pairs
from ssd.poly_labels import h_set, label_str, parse_label, q1


def a2(D):
    return aggregate_stats(D, gwlp_jmax=1).A2


def histogram(D):
    return aggregate_stats(D, gwlp_jmax=1).histogram


def test_thm4_shapes_and_orthogonal_first_column():
    for s, n in ((3, 2), (3, 3), (4, 2), (4, 3), (5, 2)):
        f = default_field(s)
        D = construct_thm4(f, n)
        t = (s**n - 1) // (s - 1)
        assert (D.N, D.m) == (s**n, 2 * t - 1)
        assert a2(D) == s**n - s
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
    # thm4: A2 = s^2 - s; thm6 with k = 2: A2 = s^2 - 1, under any modulus;
    # the sum of the pair kernel's values
    def pairwise_a2(D):
        P = design_sums(D)[0]
        return F(int((s * s * P - D.N**2).sum()), D.N**2)
    f = Field(s, modulus)
    assert pairwise_a2(construct_thm4(f, 2)) == s * s - s
    assert pairwise_a2(construct_thm6(f, 2, 2)) == s * s - 1


def test_thm6_choice_independence():
    f = default_field(3)
    H = h_set(f, 3)
    ref = None
    for pair in ([H[0], H[1]], [H[0], H[2]], [H[5], H[11]]):
        hist = histogram(construct_thm6(f, 3, 2, pair))
        if ref is None:
            ref = hist
        assert hist == ref
    assert construct_thm6(f, 3, 2, H[:2]).m == 26


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
    assert a2(D) == 24
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
        assert a2(D) == F((s**n - s) * (s - k), 2 * k)
        hist = histogram(D)
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
        hist = histogram(D)
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
        hist = histogram(D)
        worst[typ] = hist[F(1, 2)]
    assert worst[2] < worst[3] < worst[1]


def test_corollary2(gf3, gf5):
    # the full quadratic-only juxtaposition at n = 2 for odd s meets both
    # printed closed forms (s+1)s(s-1)^2/2 and C(s+1,2)(s^2-2s+1), and every
    # column has s - 1 orthogonal and s^2 partially aliased partners at
    # (s-1)^2/s^2
    for f, want in ((gf3, 24), (gf5, 240)):
        s = f.order
        D = construct_thm7(f, 2, s + 1)
        assert (D.N, D.m) == (s * s, (s + 1) * s)
        assert a2(D) == want == F((s + 1) * s * (s - 1) ** 2, 2) \
            == math.comb(s + 1, 2) * (s * s - 2 * s + 1)
        for i in range(D.m):
            degrees = Counter(classify_pair(D, i, j).a2
                              for j in range(D.m) if j != i)
            assert degrees == {0: s - 1, F((s - 1) ** 2, s * s): s * s}
    with pytest.raises(ValueError, match="odd"):
        construct_thm7(default_field(4), 2, 5)


def test_dealias_bookkeeping_small(gf4):
    before = construct_thm6(gf4, 2, 5)
    assert len(fully_aliased_pairs(before)) == 10
    after = remove_fully_aliased(before)
    assert after.m == 15
    cert = certify(aggregate_stats(after))
    assert cert.a2 == 45 == cert.theorem1 and cert.achieved_theorem1


def test_dealiasing_runs_no_pair_pass(gf4, call_counter):
    """De-aliasing groups relabelled columns without a pair pass, and builds
    no one-hot matrix."""
    from ssd import design_core
    calls, count = call_counter
    count(design_core, "_one_hot", "_cell_count_sums", "_gram_tile_sums")
    for n, k in ((2, 5), (3, 2)):
        before = construct_thm6(gf4, n, k)
        calls.clear()
        after = remove_fully_aliased(before)
        assert after.m == before.m - len(fully_aliased_pairs(before))
        assert calls == Counter()
        # the de-aliased design reaches the theorem-1 bound
        cert = certify(aggregate_stats(after, gwlp_jmax=1))
        assert cert.a2 == cert.theorem1 and cert.achieved_theorem1


def test_verify_design_runs_each_pass_once(catalog_rows, call_counter):
    """One report per row: one kernel entry, and no relabelling pass."""
    from ssd import design_core
    calls, count = call_counter
    count(criteria, "design_sums")
    count(design_core, "_one_hot", "_cell_count_sums", "_gram_tile_sums",
          "_relabelled_copies")
    for recipe, D in catalog_rows:
        calls.clear()
        assert verify_design(recipe, D).ok
        tiles = design_core._gram_tiles(design_core.level_groups(D), D.N)
        route = ("_cell_count_sums" if design_core.cells_sparse(D, tiles)
                 else "_gram_tile_sums")
        assert calls == Counter({"design_sums": 1, "_one_hot": 1,
                                 route: 1}), recipe.row_id


ALIASED = "contains fully aliased pairs"


def flags_aliasing(D: Design, s: int) -> bool:
    """Whether verify_design reports fully aliased pairs in D, checked as
    an s-level row of D's own shape."""
    recipe = Recipe("thm6", s, 2, None, D.N, D.m, {})
    return ALIASED in verify_design(recipe, D).message


def test_verify_design_reads_aliasing_from_its_report(catalog_rows):
    """The verifier's fully-aliased check, read from the report's histogram
    (the value s - 1), agrees with fully_aliased_pairs on every catalog
    design, and on each with a relabelled copy of a column appended."""
    for recipe, D in catalog_rows:
        s = recipe.s
        shift = (np.arange(s) + 1) % s
        copy = Design(shift[D.matrix[:, [D.m // 2]]], [s])
        planted = Design(np.hstack([D.matrix, copy.matrix]),
                         D.levels + copy.levels)
        assert fully_aliased_pairs(planted), recipe.row_id
        for X in (D, planted):
            assert flags_aliasing(X, s) == bool(fully_aliased_pairs(X)), \
                recipe.row_id


def test_verify_design_checks_levels_first(catalog_rows):
    """A design with a column of other levels fails on its levels, before
    any report is read."""
    recipe, D = next((r, D) for r, D in catalog_rows if r.s == 4)
    oa = [[0, 0, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]]
    X = replace_column(D, 0, oa)
    row = dataclasses.replace(recipe, expected_m=X.m)
    result = verify_design(row, X)
    assert not result.ok
    assert result.message == f"levels {' '.join(map(str, X.levels))} != 4^{X.m}"


@st.composite
def planted_copies(draw):
    """(D, s): random balanced s-level designs, most with a relabelled copy
    of one column placed among the others."""
    rnd = draw(st.randoms(use_true_random=False))
    s = draw(st.sampled_from([2, 3, 4, 5]))
    N = s * draw(st.integers(1, 8))
    m = draw(st.integers(2, 12))
    cols = []
    for _ in range(m):
        cols.append([v for v in range(s) for _ in range(N // s)])
        rnd.shuffle(cols[-1])
    if draw(st.integers(0, 3)):
        perm = list(range(s))
        rnd.shuffle(perm)
        at = draw(st.integers(0, m))
        cols.insert(at, [perm[v] for v in cols[draw(st.integers(0, m - 1))]])
    return Design(np.array(cols).T, [s] * len(cols)), s


@settings(max_examples=40, deadline=None)
@given(planted_copies())
def test_histogram_flags_exactly_the_relabelled_copies(case):
    D, s = case
    pairs = fully_aliased_pairs(D)
    assert (F(s - 1) in aggregate_stats(D, gwlp_jmax=1).histogram) == bool(pairs)
    assert flags_aliasing(D, s) == bool(pairs)


def test_catalog_has_31_rows_and_verifies(catalog_rows):
    assert len(CATALOG_SPECS) == 31
    for recipe, D in catalog_rows:
        row = verify_design(recipe, D)
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
    from ssd.design_core import realize
    from ssd.poly_labels import qh
    for f, n in ((gf3, 2), (gf3, 3), (gf4, 2)):
        s = f.order
        expect = (s**n - s) // (s * (s - 1))
        for h in h_set(f, n):
            D = realize(f, n, qh(f, h, n))
            assert design_sums(D)[2] == {(expect,): math.comb(D.N, 2)}


def test_branch_families_distinguish_the_two_saturated_arrays(gf3):
    # the linear and quadratic saturated arrays yield different fraction
    # histograms at n = 3, witnessing that they are structurally different
    h_frac = histogram(construct_thm8(gf3, 3, 2))
    q_frac = histogram(construct_thm9(gf3, 3, 2))
    assert h_frac != q_frac
