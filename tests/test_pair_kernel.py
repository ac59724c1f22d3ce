"""The tiled Gram kernel against independent per-pair cell counting."""

from collections import Counter
from fractions import Fraction as F

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.criteria import (a2_overall_from_pairs, dependency_summary,
                          pair_dependency_stats, projected_a2,
                          projected_a2_histogram)
from ssd.design_core import (FULLY_ALIASED, GRAM_TILE, Design, cell_table,
                             classify_pair, fully_aliased_pairs,
                             pair_gram_sums)


@st.composite
def mixed_designs(draw):
    """Random balanced designs, levels in {2, 3, 4, 6}, wider than one tile.

    One column is a relabelled copy of another, so a fully aliased pair is
    always present, and one column coarsens a 6-level column.
    """
    N = draw(st.sampled_from([12, 24]))
    m = draw(st.integers(GRAM_TILE + 1, GRAM_TILE + 12))
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
    assert (P == P.T).all() and (Fm == Fm.T).all()
    hist = Counter()
    chi2s, fs, d2s = [], [], []
    for i in range(D.m):
        tab = cell_table(D, i, i).astype(np.int64)
        assert P[i, i] == (tab * tab).sum()
        for j in range(i + 1, D.m):
            den = lev[i] * lev[j]
            tab = cell_table(D, i, j).astype(np.int64)
            assert P[i, j] == (tab * tab).sum()
            assert Fm[i, j] == np.abs(den * tab - N).sum()
            X = den * int(P[i, j]) - N * N
            chi2, f, d2 = pair_dependency_stats(D, i, j)
            assert (chi2, f, d2) == (F(X, N), F(int(Fm[i, j]), den), F(X, den))
            hist[projected_a2(D, i, j)] += 1
            chi2s.append(chi2)
            fs.append(f)
            d2s.append(d2)
    assert projected_a2_histogram(D) == hist
    assert a2_overall_from_pairs(D) == sum(v * c for v, c in hist.items())
    npairs = len(chi2s)
    assert dependency_summary(D) == {
        "ave_chi2": sum(chi2s) / npairs, "max_chi2": max(chi2s),
        "ave_f": sum(fs) / npairs, "max_f": max(fs),
        "E_d2": sum(d2s) / npairs, "max_d2": max(d2s)}
    expected = [(i, j) for i in range(D.m) for j in range(i + 1, D.m)
                if classify_pair(D, i, j).kind == FULLY_ALIASED]
    assert dup in expected
    assert fully_aliased_pairs(D) == expected

