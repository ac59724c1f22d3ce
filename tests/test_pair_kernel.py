"""Both routes of the pair kernel against independent per-pair cell counting.

design_sums returns the sums of the pairs i < j of D's columns in
ascending level order (a stable sort) as row-major vectors, the order of
itertools.combinations(range(m), 2), so every comparison walks the pairs
of a level-sorted copy of D, sorted_columns(D), in that order."""

import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import design_core
from ssd.constructions import construct_thm4, construct_thm6
from ssd.criteria import aggregate_stats
from ssd.design_core import (Design, _gram_tiles, cells_sparse, design_sums,
                             level_groups, pair_starts, realize,
                             remove_fully_aliased, select_columns)
from ssd.gf import default_field
from ssd.oracle import (FULLY_ALIASED, classify_pair, fully_aliased_pairs,
                        pair_a2_from_table, pair_dependency_stats, pair_table)
from ssd.poly_labels import h_set


def sorted_columns(D):
    """A copy of D with its columns in ascending level order, equal levels
    in their own order: the column order of design_sums' pairs."""
    return select_columns(D, np.argsort(D.levels, kind="stable"))


@st.composite
def mixed_designs(draw):
    """Random balanced designs, levels drawn from the divisors 2..12 of N,
    many Gram tiles wide.  At N = 24 and 72 the pair denominators s_i s_j
    need not have N^2 as their lcm.

    One column is a relabelled copy of another, so a fully aliased pair is
    always present, and one column coarsens a 6-level column.
    """
    N = draw(st.sampled_from([12, 24, 72]))
    m = draw(st.integers(65, 76))
    divisors = [s for s in range(2, 13) if N % s == 0]
    levels = draw(st.lists(st.sampled_from(divisors), min_size=m, max_size=m))
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
    S = sorted_columns(D)
    N, lev = S.N, S.levels
    P, Fm, _ = design_sums(D)
    hist = Counter()
    chi2s, fs, d2s = [], [], []
    pairs = itertools.combinations(range(D.m), 2)
    for (i, j), p, f_sum in zip(pairs, P.tolist(), Fm.tolist(), strict=True):
        den = lev[i] * lev[j]
        tab = np.array(pair_table(S, i, j))
        assert p == (tab * tab).sum()
        assert f_sum == np.abs(den * tab - N).sum()
        X = den * p - N * N
        chi2, f, d2 = pair_dependency_stats(S, i, j)
        assert (chi2, f, d2) == (F(X, N), F(f_sum, den), F(X, den))
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
    keep = [k for k in range(D.m) if k not in {j for _, j in expected}]
    assert (remove_fully_aliased(D).matrix == D.matrix[:, keep]).all()



def per_pair_sums(D):
    """P and F of every pair i < j, row-major, each from its own cell table."""
    P, Fm = [], []
    for i, j in itertools.combinations(range(D.m), 2):
        tab = np.array(pair_table(D, i, j))
        P.append((tab * tab).sum())
        Fm.append(np.abs(D.levels[i] * D.levels[j] * tab - D.N).sum())
    return np.array(P, dtype=np.int64), np.array(Fm, dtype=np.int64)


def forced_sums(D, sparse):
    """P and F of design_sums(D) on the chosen route."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_core, "cells_sparse", lambda D, tiles: sparse)
        return design_sums(D)[:2]


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
    projected A2 = s - 1, i.e. s P[i, j] = N^2.  The kernel's pairs are
    those of the level-sorted columns, a stable sort, so a pair of equal
    levels keeps its order when mapped back to D's columns."""
    P = design_sums(D)[0]
    order = np.argsort(D.levels, kind="stable")
    lev = np.asarray(D.levels)[order]
    i, j = np.triu_indices(D.m, 1)
    hit = (lev[i] == lev[j]) & (lev[i] * P == D.N * D.N)
    return sorted(zip(order[i[hit]].tolist(), order[j[hit]].tolist()))


@settings(max_examples=25, deadline=None)
@given(planted_copy_designs())
def test_fully_aliased_pairs_match_the_pair_kernel(D):
    with pytest.MonkeyPatch.context() as mp:
        # tiles of 64 columns, so the relabelling check spans up to 3 tiles
        mp.setattr(design_core, "MATRIX_BLOCK_CELLS", 64 * D.N)
        kept = remove_fully_aliased(D)
    pairs = fully_aliased_pairs(D)
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
    assert remove_fully_aliased(D) is D
    # a symbol that never appears leaves an empty row and column in the table
    D = Design([[0, 2], [0, 2], [1, 0], [1, 0], [1, 0], [0, 2]], [3, 3],
               require_balanced=False)
    assert fully_aliased_pairs(D) == [(0, 1)]
    assert remove_fully_aliased(D).m == 1


@st.composite
def regime_designs(draw):
    """Random designs with mixed levels, unbalanced columns allowed, either
    sparse (every pair has at least N cells) or dense (every pair has
    fewer).  Either way both routes are taken by force: which one
    cells_sparse picks depends on timings, not on this split."""
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
    return Design(np.array(cols).T, levels, require_balanced=False)


@settings(max_examples=40, deadline=None)
@given(regime_designs())
def test_both_routes_match_cell_tables(D):
    D = sorted_columns(D)
    want = per_pair_sums(D)
    for sparse in (True, False):
        P, Fm = forced_sums(D, sparse)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        assert P.dtype == Fm.dtype == np.int64
    # the oracle's row-counted statistics give the same sums
    pairs = itertools.combinations(range(D.m), 2)
    for (i, j), p, f in zip(pairs, *want):
        den = D.levels[i] * D.levels[j]
        X = den * int(p) - D.N ** 2
        assert pair_dependency_stats(D, i, j) == (F(X, D.N), F(int(f), den),
                                                  F(X, den))
        assert pair_a2_from_table(pair_table(D, i, j), D.N) == F(X, D.N ** 2)


def test_cell_count_chunks_stay_within_budget(monkeypatch):
    """A small budget splits the pairs into many bincount chunks, each within
    the budget unless it holds a single pair whose table alone exceeds it.
    The route is called on its own, so no other bincount is counted; it
    takes the columns in any order."""
    rng = np.random.default_rng(5)
    levels = [12, 4, 6, 12, 4, 6, 12]
    N = 12
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    D = Design(np.array(cols).T, levels)
    assert cells_sparse(D, _gram_tiles(level_groups(D), N))
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
            P, Fm = design_core._cell_count_sums(D.matrix, D.levels)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        assert len(chunks) > 1
        assert sum(pairs for pairs, _ in chunks) == len(levels) * (len(levels) - 1) // 2
        for pairs, bins in chunks:
            assert pairs == 1 or max(pairs * N, bins) <= budget
        # a 12 x 12 table has 144 cells: below that budget it is a chunk alone
        assert budget > 144 or (1, 144) in chunks


def test_catalog_designs_give_equal_sums_on_both_routes(catalog_rows):
    routes = set()
    for recipe, D in catalog_rows:
        routes.add(cells_sparse(D, _gram_tiles(level_groups(D), D.N)))
        sparse = forced_sums(D, True)
        dense = forced_sums(D, False)
        assert all((a == b).all() for a, b in zip(sparse, dense)), recipe.row_id
        natural = design_sums(D)[:2]
        assert all((a == b).all() for a, b in zip(natural, sparse)), recipe.row_id
    assert routes == {True, False}


def recorded_gram_tiles(mp):
    """Rebind design_core._gram_tiles so that each tile plan it returns is
    appended to the returned list."""
    plans = []
    plan = design_core._gram_tiles

    def recording(groups, N):
        plans.append(plan(groups, N))
        return plans[-1]
    mp.setattr(design_core, "_gram_tiles", recording)
    return plans


def test_gram_tiles_stay_within_budget(monkeypatch):
    """A small budget splits the columns, taken in ascending level order,
    into many Gram tiles of one level each and of uneven height, each
    within the budget unless it is one column taller than the budget
    alone; the workspace fits the tallest tile, not the first."""
    rng = np.random.default_rng(9)
    levels = [3, 9, 3, 3, 9, 9, 3, 9, 3, 3, 3, 9, 9, 3]
    N = 81
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    D = Design(np.array(cols).T, levels)
    want = per_pair_sums(sorted_columns(D))
    ascending = sorted(levels)
    L = sum(levels)
    uneven = False
    for budget in (1, 4, 10, 20, 40):
        monkeypatch.setattr(design_core, "GRAM_TILE_CELLS", budget)
        plans = recorded_gram_tiles(monkeypatch)
        P, Fm = forced_sums(D, False)
        assert (P == want[0]).all() and (Fm == want[1]).all()
        tiles = plans[-1]
        assert len(tiles) > 1
        assert [c0 for c0, _ in tiles] == [0] + [c1 for _, c1 in tiles[:-1]]
        assert tiles[-1][1] == len(levels)
        heights = [sum(ascending[c0:c1]) for c0, c1 in tiles]
        for (c0, c1), h in zip(tiles, heights):
            assert len(set(ascending[c0:c1])) == 1
            assert c1 - c0 == 1 or h <= budget * N // L
        uneven |= max(heights) > heights[0]
    assert uneven


@st.composite
def interleaved_designs(draw):
    """Random designs whose levels are interleaved and unsorted: the pattern
    2, 9, 3, 9, 2 and then up to 30 more columns of 2, 3, 6, 9 or 18 levels;
    balanced or not."""
    N = draw(st.sampled_from([18, 36]))
    levels = [2, 9, 3, 9, 2] + draw(st.lists(st.sampled_from([2, 3, 6, 9, 18]),
                                             max_size=30))
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
    return Design(np.array(cols).T, levels, require_balanced=False)


@settings(max_examples=30, deadline=None)
@given(interleaved_designs(), st.sampled_from([1, 8, 512]))
def test_gram_route_walks_unsorted_levels(D, budget):
    """The Gram route takes the columns in ascending level order, so it
    matches the oracle's row-counted tables of sorted_columns(D)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_core, "GRAM_TILE_CELLS", budget)
        P, Fm = forced_sums(D, False)
    S = sorted_columns(D)
    assert sorted(S.levels) == list(S.levels)
    assert sorted(map(tuple, S.matrix.T.tolist())) == sorted(
        map(tuple, D.matrix.T.tolist()))
    pairs = itertools.combinations(range(S.m), 2)
    for (i, j), p, f in zip(pairs, P.tolist(), Fm.tolist(), strict=True):
        tab = np.array(pair_table(S, i, j))
        assert p == (tab * tab).sum()
        assert f == np.abs(S.levels[i] * S.levels[j] * tab - S.N).sum()


def test_float32_gram_is_exact_up_to_two_to_the_24(monkeypatch):
    """At 4096 runs and two levels a balanced column against a constant one
    gives P = 2 * 2048^2 = 2^23, and a pair of constant columns
    P = 4096^2 = 2^24, the largest sum the float32 Gram tiles must hold
    exactly."""
    gf2 = default_field(2)
    H = realize(gf2, 12, h_set(gf2, 12)[:65]).matrix
    zeros = np.zeros((4096, 2), dtype=np.int64)
    D = Design(np.column_stack([H, zeros]), [2] * 67, require_balanced=False)
    plans = recorded_gram_tiles(monkeypatch)
    # tiles of 30 one-hot rows: 15 columns each
    monkeypatch.setattr(design_core, "GRAM_TILE_CELLS", 1)
    P, Fm = forced_sums(D, False)
    assert len(plans[0]) == 5
    assert P[64] == 2 ** 23 and P[-1] == 2 ** 24
    want = per_pair_sums(D)
    assert (P == want[0]).all() and (Fm == want[1]).all()


@pytest.mark.parametrize("q, n, t", [(2, 12, 2), (3, 7, 3), (3, 7, 27)],
                         ids=["2-12", "3-7", "3-7-27"])
def test_gram_f_is_exact_past_two_to_the_24(q, n, t):
    """One N-level column, N = q^n, each symbol once, ahead of 30 balanced
    t-level columns, so the level sort puts it last: F of a pair with the
    big column is 2 N (N t - N), twice a hinge block sum of N^2 (t - 1).
    That is 2^24 at 4096 runs and t = 2, and 2 * 62178597 at 2187 runs and
    t = 27: an odd multiple of 2 past 2^25, so no float32 block sum can
    hold it.  The cell-count route gives the same sums."""
    N = q ** n
    rng = np.random.default_rng(3)
    small = [rng.permutation(np.repeat(np.arange(t), N // t)) for _ in range(30)]
    D = Design(np.column_stack([rng.permutation(N), *small]), [N] + [t] * 30)
    half = N * N * (t - 1)
    if t == 27:
        assert half > 2 ** 24 and int(np.float32(half)) != half
    S = sorted_columns(D)
    assert S.levels == (t,) * 30 + (N,)
    # the pair (i, 30) of the sorted columns is the last of row i
    big = pair_starts(31)[1:] - 1
    rest = [np.delete(v, big) for v in per_pair_sums(S)]
    for sparse in (False, True):
        P, Fm = forced_sums(D, sparse)
        assert (P[big] == N).all()
        assert (Fm[big] == 2 * half).all()
        assert (np.delete(P, big) == rest[0]).all()
        assert (np.delete(Fm, big) == rest[1]).all()


@pytest.mark.parametrize("build, cells", [
    (lambda: construct_thm6(default_field(3), 2, 2), True),        # 9 x 8
    (lambda: construct_thm4(default_field(5), 2), True),           # 25 x 11
    (lambda: construct_thm6(default_field(7), 2, 8), False),       # 49 x 64
    (lambda: construct_thm6(default_field(4), 3, 5), False),       # 64 x 105
    (lambda: construct_thm4(default_field(32), 2), True),          # 1024 x 65
    (lambda: construct_thm4(default_field(64), 2), True),          # 4096 x 129
    (lambda: construct_thm4(default_field(4), 5), False),          # 1024 x 681
])
def test_route_rule_on_timed_shapes(build, cells):
    """The route cells_sparse picks for shapes whose two routes were timed
    apart by at least 10%."""
    D = build()
    assert cells_sparse(D, _gram_tiles(level_groups(D), D.N)) == cells
