"""Both routes of the pair kernel against independent per-pair cell counting.

pair_gram_sums fills the upper triangles i <= j only, so every comparison
reads those entries."""

from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import design_core
from ssd.criteria import aggregate_stats
from ssd.design_core import (FULLY_ALIASED, Design, cells_sparse,
                             classify_pair, fully_aliased_pairs,
                             pair_gram_sums, realize, remove_fully_aliased,
                             select_columns)
from ssd.gf import default_field
from ssd.oracle import pair_a2_from_table, pair_dependency_stats, pair_table
from ssd.poly_labels import h_set


def upper(M):
    """The entries i <= j of a square matrix, row-major."""
    return M[np.triu_indices(len(M))]


@st.composite
def mixed_designs(draw):
    """Random balanced designs, levels in {2, 3, 4, 6}, many Gram tiles wide.

    One column is a relabelled copy of another, so a fully aliased pair is
    always present, and one column coarsens a 6-level column.
    """
    N = draw(st.sampled_from([12, 24]))
    m = draw(st.integers(65, 76))
    levels = draw(st.lists(st.sampled_from([2, 3, 4, 6]), min_size=m, max_size=m))
    rnd = draw(st.randoms(use_true_random=False))
    cols = []
    for s in levels:
        col = [v for v in range(s) for _ in range(N // s)]
        rnd.shuffle(col)
        cols.append(col)
    src, dst, fine, coarse = rnd.sample(range(m), 4)
    relabel = list(range(levels[src]))
    rnd.shuffle(relabel)
    cols[dst] = [relabel[v] for v in cols[src]]
    levels[dst] = levels[src]
    # a 2- or 3-level column that is a function of a 6-level one: aliased,
    # but not fully, because the level counts differ
    levels[fine] = 6
    cols[fine] = [v for v in range(6) for _ in range(N // 6)]
    rnd.shuffle(cols[fine])
    levels[coarse] = rnd.choice([2, 3])
    cols[coarse] = [v % levels[coarse] for v in cols[fine]]
    return Design(np.array(cols).T, levels), (min(src, dst), max(src, dst))


@settings(max_examples=8, deadline=None)
@given(mixed_designs())
def test_kernel_matches_per_pair_counting(case):
    D, dup = case
    N, lev = D.N, D.levels
    P, Fm = pair_gram_sums(D)
    hist = Counter()
    chi2s, fs, d2s = [], [], []
    for i in range(D.m):
        tab = np.array(pair_table(D, i, i))
        assert P[i, i] == (tab * tab).sum()
        for j in range(i + 1, D.m):
            den = lev[i] * lev[j]
            tab = np.array(pair_table(D, i, j))
            assert P[i, j] == (tab * tab).sum()
            assert Fm[i, j] == np.abs(den * tab - N).sum()
            X = den * int(P[i, j]) - N * N
            chi2, f, d2 = pair_dependency_stats(D, i, j)
            assert (chi2, f, d2) == (F(X, N), F(int(Fm[i, j]), den), F(X, den))
            hist[pair_a2_from_table(tab.tolist(), N)] += 1
            chi2s.append(chi2)
            fs.append(f)
            d2s.append(d2)
    rep = aggregate_stats(D, gwlp_jmax=1)
    assert rep.histogram == hist
    assert rep.A2 == sum(v * c for v, c in hist.items())
    npairs = len(chi2s)
    assert (rep.ave_chi2, rep.max_chi2, rep.ave_f, rep.max_f, rep.E_d2,
            rep.max_d2) == (sum(chi2s) / npairs, max(chi2s),
                            sum(fs) / npairs, max(fs),
                            sum(d2s) / npairs, max(d2s))
    expected = [(i, j) for i in range(D.m) for j in range(i + 1, D.m)
                if classify_pair(D, i, j).kind == FULLY_ALIASED]
    assert dup in expected
    assert fully_aliased_pairs(D) == expected



def per_pair_sums(D):
    """P and F of every pair i <= j, row-major, each from its own cell table."""
    P, Fm = [], []
    for i in range(D.m):
        for j in range(i, D.m):
            tab = np.array(pair_table(D, i, j))
            P.append((tab * tab).sum())
            Fm.append(np.abs(D.levels[i] * D.levels[j] * tab - D.N).sum())
    return np.array(P), np.array(Fm)


def upper_sums(D):
    """The upper triangles of pair_gram_sums, row-major."""
    return tuple(upper(M) for M in pair_gram_sums(D))


def forced_sums(D, sparse):
    """upper_sums of D on the chosen route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_core, "cells_sparse", lambda D: sparse)
        return upper_sums(D)


@st.composite
def planted_copy_designs(draw):
    """Random balanced designs, levels in {2, 3, 4, 6, 12}, up to 136
    columns, with up to eight columns overwritten by relabelled copies of
    others (copies of copies included)."""
    N = draw(st.sampled_from([12, 24]))
    m = draw(st.integers(2, 136))
    levels = draw(st.lists(st.sampled_from([2, 3, 4, 6, 12]),
                           min_size=m, max_size=m))
    rnd = draw(st.randoms(use_true_random=False))
    cols = []
    for s in levels:
        col = [v for v in range(s) for _ in range(N // s)]
        rnd.shuffle(col)
        cols.append(col)
    for _ in range(draw(st.integers(0, 8))):
        src, dst = rnd.sample(range(m), 2)
        relabel = list(range(levels[src]))
        rnd.shuffle(relabel)
        cols[dst] = [relabel[v] for v in cols[src]]
        levels[dst] = levels[src]
    return Design(np.array(cols).T, levels)


def gram_aliased_pairs(D):
    """The pair-kernel criterion for balanced designs: equal levels and
    projected A2 = s - 1, i.e. s P[i, j] = N^2."""
    P = pair_gram_sums(D)[0]
    lev = np.asarray(D.levels)
    i, j = np.triu_indices(D.m, 1)
    hit = (lev[i] == lev[j]) & (lev[i] * P[i, j] == D.N * D.N)
    return list(zip(i[hit].tolist(), j[hit].tolist()))


@settings(max_examples=25, deadline=None)
@given(planted_copy_designs())
def test_fully_aliased_pairs_match_the_pair_kernel(D):
    with pytest.MonkeyPatch.context() as mp:
        # tiles of 64 columns, so the relabelling check spans up to 3 tiles
        mp.setattr(design_core, "MATRIX_BLOCK_CELLS", 64 * D.N)
        pairs = fully_aliased_pairs(D)
        kept = remove_fully_aliased(D)
    assert pairs == gram_aliased_pairs(D)
    removed = set()
    for i, j in pairs:
        if i not in removed and j not in removed:
            removed.add(j)
    assert kept.m == D.m - len(removed)
    assert (kept.matrix == np.delete(D.matrix, sorted(removed), axis=1)).all()


def test_fully_aliased_pairs_of_unbalanced_columns():
    # the second column swaps the symbols of the first: fully aliased, though
    # neither column is balanced and s P = 2 * 10 != N^2 = 16
    D = Design([[0, 1], [0, 1], [0, 1], [1, 0]], [2, 2], require_balanced=False)
    assert fully_aliased_pairs(D) == [(0, 1)]
    assert remove_fully_aliased(D).m == 1
    # equal symbols under different level counts are not a relabelling
    D = Design([[0, 0], [1, 1], [0, 0], [1, 1]], [2, 4], require_balanced=False)
    assert fully_aliased_pairs(D) == []


@st.composite
def regime_designs(draw):
    """Random designs with mixed levels, unbalanced columns allowed, either
    sparse (every pair has at least N cells) or dense (every pair has
    fewer)."""
    sparse = draw(st.booleans())
    if sparse:
        N, choices = draw(st.sampled_from([(12, [4, 6, 12]), (24, [6, 8, 12, 24]),
                                           (36, [6, 9, 12, 18])]))
    else:
        N, choices = draw(st.sampled_from([(24, [2, 3, 4]), (48, [2, 3, 4, 6])]))
    m = draw(st.integers(1, 20))
    levels = draw(st.lists(st.sampled_from(choices), min_size=m, max_size=m))
    rnd = draw(st.randoms(use_true_random=False))
    balanced = draw(st.booleans())
    cols = []
    for s in levels:
        if balanced:
            col = [v for v in range(s) for _ in range(N // s)]
            rnd.shuffle(col)
        else:
            col = [rnd.randrange(s) for _ in range(N)]
        cols.append(col)
    D = Design(np.array(cols).T, levels, require_balanced=False)
    assert cells_sparse(D) == sparse
    return D


@settings(max_examples=40, deadline=None)
@given(regime_designs())
def test_both_routes_match_cell_tables(D):
    want = per_pair_sums(D)
    for sparse in (True, False):
        P, Fm = forced_sums(D, sparse)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        assert P.dtype == Fm.dtype == np.int64
    # the oracle's row-counted statistics give the same sums
    pairs = [(i, j) for i in range(D.m) for j in range(i, D.m)]
    for (i, j), p, f in zip(pairs, *want):
        if i < j:
            den = D.levels[i] * D.levels[j]
            X = den * int(p) - D.N ** 2
            assert pair_dependency_stats(D, i, j) == (F(X, D.N), F(int(f), den),
                                                      F(X, den))
            assert pair_a2_from_table(pair_table(D, i, j), D.N) == F(X, D.N ** 2)


def test_cell_count_chunks_stay_within_budget(monkeypatch):
    """A small budget splits the pairs into many bincount chunks, each within
    the budget unless it holds a single pair whose table alone exceeds it."""
    rng = np.random.default_rng(5)
    levels = [12, 4, 6, 12, 4, 6, 12]
    N = 12
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    D = Design(np.array(cols).T, levels)
    assert cells_sparse(D)
    want = per_pair_sums(D)
    bincount = np.bincount
    for budget in (1, 40, 150, 400):
        chunks = []

        def counting(codes, minlength=0):
            chunks.append((codes.size // N, minlength))
            return bincount(codes, minlength=minlength)
        with monkeypatch.context() as mp:
            mp.setattr(design_core, "PAIR_CELL_BUDGET", budget)
            mp.setattr(design_core.np, "bincount", counting)
            P, Fm = upper_sums(D)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        assert len(chunks) > 1
        assert sum(pairs for pairs, _ in chunks) == len(levels) * (len(levels) + 1) // 2
        for pairs, bins in chunks:
            assert pairs == 1 or max(pairs * N, bins) <= budget
        # a 12 x 12 table has 144 cells: below that budget it is a chunk alone
        assert budget > 144 or (1, 144) in chunks


def test_catalog_designs_give_equal_sums_on_both_routes(catalog_rows):
    routes = set()
    for recipe, D in catalog_rows:
        routes.add(cells_sparse(D))
        sparse = forced_sums(D, True)
        dense = forced_sums(D, False)
        assert all((a == b).all() for a, b in zip(sparse, dense)), recipe.row_id
        natural = upper_sums(D)
        assert all((a == b).all() for a, b in zip(natural, sparse)), recipe.row_id
    assert routes == {True, False}


def recorded_gram_tiles(mp):
    """Rebind design_core._gram_tiles so that each tile plan it returns is
    appended to the returned list."""
    plans = []
    plan = design_core._gram_tiles

    def recording(bounds, N):
        plans.append(plan(bounds, N))
        return plans[-1]
    mp.setattr(design_core, "_gram_tiles", recording)
    return plans


def test_gram_tiles_stay_within_budget(monkeypatch):
    """A small budget splits the columns into many Gram tiles of uneven
    height, each within the budget unless it is one column taller than
    the budget alone; the workspace fits the tallest tile, not the first."""
    rng = np.random.default_rng(9)
    levels = [3, 9, 3, 3, 9, 9, 3, 9, 3, 3, 3, 9, 9, 3]
    N = 81
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    D = Design(np.array(cols).T, levels)
    assert not cells_sparse(D)
    want = per_pair_sums(D)
    L = sum(levels)
    uneven = False
    for budget in (1, 4, 10, 20, 40):
        plans = recorded_gram_tiles(monkeypatch)
        monkeypatch.setattr(design_core, "GRAM_TILE_CELLS", budget)
        P, Fm = upper_sums(D)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        (tiles,) = plans
        assert len(tiles) > 1
        assert [c0 for c0, _ in tiles] == [0] + [c1 for _, c1 in tiles[:-1]]
        assert tiles[-1][1] == len(levels)
        heights = [sum(levels[c0:c1]) for c0, c1 in tiles]
        for (c0, c1), h in zip(tiles, heights):
            assert c1 - c0 == 1 or h <= budget * N // L
        uneven |= max(heights) > heights[0]
    assert uneven


def test_float32_gram_is_exact_up_to_two_to_the_24(monkeypatch):
    """At 4096 runs and two levels a balanced column against itself gives
    P = 2 * 2048^2 = 2^23 and a constant column P = 4096^2 = 2^24, the
    largest sum the float32 Gram tiles must hold exactly."""
    gf2 = default_field(2)
    H = realize(gf2, 12, h_set(gf2, 12)[:65]).matrix
    D = Design(np.column_stack([H, np.zeros(4096, dtype=np.int64)]),
               [2] * 66, require_balanced=False)
    assert not cells_sparse(D)
    plans = recorded_gram_tiles(monkeypatch)
    # tiles of 31 one-hot rows: 15 columns each
    monkeypatch.setattr(design_core, "GRAM_TILE_CELLS", 1)
    P, Fm = upper_sums(D)
    assert len(plans[0]) == 5
    assert P[0] == 2 ** 23 and P[-1] == 2 ** 24
    want = per_pair_sums(D)
    assert (P == want[0]).all() and (Fm == want[1]).all()


@pytest.mark.parametrize("q, n", [(2, 12), (3, 7)])
def test_gram_f_is_exact_past_two_to_the_24(q, n):
    """One N-level column, N = q^n, each symbol once, beside 100 q-level
    columns: on the Gram route, F of a pair with the big column is
    2 N (s_i s_j - N), and for the column against itself 2 N (N^2 - N),
    far past 2^24.  At 2187 = 3^7 runs float32 block sums of F would round;
    at 4096 runs every level is a power of two and they would not, so that
    case checks the run limit."""
    field = default_field(q)
    N = q ** n
    small_cols = realize(field, n, h_set(field, n)[:100]).matrix
    big = np.random.default_rng(3).permutation(N)
    D = Design(np.column_stack([big, small_cols]), [N] + [q] * 100)
    assert not cells_sparse(D)
    P, Fm = pair_gram_sums(D)
    w = np.array([N * N] + [N * q] * 100)
    assert (P[0] == N).all()
    assert (Fm[0] == 2 * N * (w - N)).all()
    rest = per_pair_sums(select_columns(D, range(1, 101)))
    assert (upper(P[1:, 1:]) == rest[0]).all()
    assert (upper(Fm[1:, 1:]) == rest[1]).all()
