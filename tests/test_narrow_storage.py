"""Designs stored in uint8 and uint16 against int64 recomputations.

A design matrix is stored in the narrowest unsigned dtype that holds its
symbols, and numpy keeps uint8 * int in uint8, so every kernel that builds a
number from symbols (x_i s_j + x_j and the like) must widen first.  The
designs here put those codes past the dtype: in uint8 a column of 17..256
levels (32 * 31 + 31 > 255), in uint16 a column of 512 to 4096 levels.  Each
kernel is compared with a plain computation on matrix.astype(np.int64).
"""

import itertools
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import design_core
from ssd.criteria import char_a2_matrix, projected_a2_char, strength
from ssd.design_core import (FULLY_ALIASED, Design, cell_table,
                             classify_columns, classify_pair,
                             fully_aliased_pairs, is_oa,
                             joint_coincidence_counts, level_groups,
                             pair_gram_sums)

# (run counts, the level counts a widest column takes) per storage dtype;
# the 4096-run case is WIDEST below
SHAPES = {
    "uint8": ([64, 256, 512], range(17, 257)),
    "uint16": ([512, 1024, 2048], range(257, 4097)),
}
EXAMPLES = {"uint8": 12, "uint16": 5}
# runs of the designs whose Gram products (forced Gram route, characters)
# would be slow at N = 4096 with a 4096-level column
GRAM_RUNS = 1024


def design_of(N, levels, seed, factorial=False, copy=None):
    """A balanced design of random columns.  factorial makes columns 0 and 1
    the digits of a factorial pair, and copy=(src, dst) makes column dst a
    relabelled copy of column src."""
    rng = np.random.default_rng(seed)
    levels = list(levels)
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    if factorial:
        rows = rng.permutation(N)
        cols[0], cols[1] = rows // levels[1] % levels[0], rows % levels[1]
    if copy is not None:
        src, dst = copy
        levels[dst] = levels[src]
        cols[dst] = rng.permutation(levels[src])[cols[src]]
    return Design(np.column_stack(cols), levels)


@st.composite
def narrow_designs(draw, dtype, max_runs):
    """A balanced design of 2 to 5 columns whose first column has the most
    levels, a count in the dtype's range.  Sometimes its first two columns
    are the digits of a factorial pair (strength >= 2), and sometimes a
    later column is a relabelled copy of another (a fully aliased pair)."""
    runs, top_levels = SHAPES[dtype]
    N = draw(st.sampled_from([n for n in runs if n <= max_runs]))
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    top = draw(st.sampled_from([d for d in divisors if d in top_levels]))
    m = draw(st.integers(2, 5))
    narrow = [d for d in divisors if d <= min(top, 512)]
    levels = [top] + draw(st.lists(st.sampled_from(narrow), min_size=m - 1,
                                   max_size=m - 1))
    factorial = draw(st.booleans()) and N % (top * levels[1]) == 0
    copy = None
    if draw(st.booleans()):
        dst = draw(st.integers(1, m - 1))
        copy = (draw(st.sampled_from([k for k in range(m) if k != dst])), dst)
    D = design_of(N, levels, draw(st.integers(0, 2**32 - 1)), factorial, copy)
    assert D.matrix.dtype == dtype
    return D


# the hazards of each dtype at their widest: a 256-level column (symbol 255,
# so 255 + 1 wraps) with a relabelled copy, and 4096 runs with 4096- and
# 512-level columns
WIDEST = {
    "uint8": design_of(512, [256, 2, 32, 256], 1, factorial=True,
                       copy=(0, 3)),
    "uint16": design_of(4096, [4096, 512, 2], 2),
}


def on_designs(dtype, check, max_runs=4096):
    """Run check on the dtype's widest design and on hypothesis designs
    stored in that dtype, of at most max_runs runs."""
    if WIDEST[dtype].N <= max_runs:
        check(WIDEST[dtype])

    @settings(max_examples=EXAMPLES[dtype], deadline=None)
    @given(narrow_designs(dtype, max_runs))
    def run(D):
        check(D)
    run()


by_dtype = pytest.mark.parametrize("dtype", list(SHAPES))


def wide(D):
    return D.matrix.astype(np.int64)


def reference_table(X, levels, i, j):
    si, sj = levels[i], levels[j]
    codes = X[:, i] * sj + X[:, j]
    return np.bincount(codes, minlength=si * sj).reshape(si, sj)


def check_cell_tables_and_classes(D):
    X = wide(D)
    for i, j in itertools.combinations_with_replacement(range(D.m), 2):
        tab = reference_table(X, D.levels, i, j)
        assert (cell_table(D, i, j) == tab).all()
        got = classify_pair(D, i, j)
        assert got == classify_columns(X[:, i], X[:, j], D.levels[i],
                                       D.levels[j])
        sumsq = int((tab * tab).sum())
        assert got.a2 == F(D.levels[i] * D.levels[j] * sumsq - D.N**2, D.N**2)


def check_pair_gram_sums(D):
    X, lev, N = wide(D), D.levels, D.N
    P, Fm = pair_gram_sums(D)
    for i, j in itertools.product(range(D.m), repeat=2):
        tab = reference_table(X, lev, i, j)
        assert P[i, j] == (tab * tab).sum()
        assert Fm[i, j] == np.abs(lev[i] * lev[j] * tab - N).sum()


def check_joint_coincidences(D):
    """Rows against every row, a block of rows at a time, per level group;
    each pair a < b counted once."""
    X = wide(D)
    groups = level_groups(D)
    owner = [np.flatnonzero(np.asarray(D.levels) == s) for s, _ in groups]
    radix = [mg + 1 for _, mg in groups]
    counts = np.zeros(int(np.prod(radix)), dtype=np.int64)
    for a0 in range(0, D.N, 64):
        a = np.arange(a0, min(a0 + 64, D.N))
        below = np.arange(D.N)[None, :] > a[:, None]
        agree = [(X[a, None][..., k] == X[None, :, k]).sum(axis=2)[below]
                 for k in owner]
        counts += np.bincount(np.ravel_multi_index(agree, radix),
                              minlength=len(counts))
    keys = np.flatnonzero(counts)
    want = dict(zip(zip(*(k.tolist() for k in np.unravel_index(keys, radix))),
                    counts[keys].tolist()))
    assert joint_coincidence_counts(D) == want


def check_fully_aliased_pairs(D):
    X = wide(D)
    want = [(i, j) for i, j in itertools.combinations(range(D.m), 2)
            if D.levels[i] == D.levels[j]
            and np.count_nonzero(reference_table(X, D.levels, i, j))
            == D.levels[i]]
    assert fully_aliased_pairs(D) == want
    for i, j in want:
        assert classify_pair(D, i, j).kind == FULLY_ALIASED


def check_strength(D):
    t = strength(D)
    assert all(is_oa(D, u) for u in range(1, t + 1))
    assert t == D.m or not is_oa(D, t + 1)


def check_char_route(D):
    X, N = wide(D), D.N
    C = char_a2_matrix(D)
    for i, j in itertools.combinations(range(D.m), 2):
        tab = reference_table(X, D.levels, i, j)
        a2 = (D.levels[i] * D.levels[j] * (tab * tab).sum() - N * N) / (N * N)
        assert projected_a2_char(D, i, j) == pytest.approx(a2, abs=1e-9)
        assert C[i, j] == pytest.approx(a2, abs=1e-9)


@by_dtype
def test_cell_table_and_classify_pair_widen(dtype):
    on_designs(dtype, check_cell_tables_and_classes)


@pytest.mark.parametrize("sparse", [True, False], ids=["cell-count", "gram"])
@by_dtype
def test_pair_gram_sums_widen_on_either_route(dtype, sparse, monkeypatch):
    monkeypatch.setattr(design_core, "cells_sparse", lambda D: sparse)
    on_designs(dtype, check_pair_gram_sums, 4096 if sparse else GRAM_RUNS)


@by_dtype
def test_joint_coincidence_counts_widen(dtype):
    on_designs(dtype, check_joint_coincidences)


@by_dtype
def test_fully_aliased_pairs_widen(dtype):
    on_designs(dtype, check_fully_aliased_pairs)


@by_dtype
def test_strength_agrees_with_is_oa(dtype):
    on_designs(dtype, check_strength)


@by_dtype
def test_char_route_widens(dtype):
    on_designs(dtype, check_char_route, GRAM_RUNS)


def test_symbols_are_range_checked_before_they_are_narrowed():
    # 300 would wrap to 44 in uint8, a valid symbol of a 256-level column
    col = np.repeat(np.arange(256), 2)
    col[0] = 300
    with pytest.raises(ValueError, match=r"column 0 has symbols outside 0\.\.255"):
        Design(col[:, None], [256])
    col[0] = -1
    with pytest.raises(ValueError, match="symbols outside"):
        Design(col[:, None].astype(np.int8), [256], require_balanced=False)


@pytest.mark.parametrize("N,levels,dtype", [
    (4096, [2], np.uint8), (4096, [256, 2], np.uint8),
    (514, [257, 2], np.uint16), (4096, [4096, 512], np.uint16)])
def test_matrix_dtype_is_the_narrowest_that_holds_a_symbol(N, levels, dtype):
    cols = [np.arange(N) % s for s in levels]
    D = Design(np.column_stack(cols), levels)
    assert D.matrix.dtype == dtype == np.min_scalar_type(max(levels) - 1)
    assert not D.matrix.flags.writeable
    # a frozen matrix of the storage dtype is taken as it is, any other copied
    assert Design(D.matrix, D.levels).matrix is D.matrix
    wide = D.matrix.astype(np.int64)
    wide.setflags(write=False)
    assert Design(wide, D.levels).matrix.dtype == dtype
    assert Counter(map(tuple, D.matrix.tolist())) == Counter(
        map(tuple, np.column_stack(cols).tolist()))
