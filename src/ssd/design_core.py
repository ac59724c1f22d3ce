"""Design matrices and structural operations.

A Design is an immutable N x m symbol matrix with per-column level counts and
optional label provenance.  Everything downstream (criteria, bounds, the
catalog) works on this type.  It keeps no evaluation state: the pair sums P
and F and the joint row coincidence histogram come from one kernel entry,
design_sums, computed on every call, so each caller asks once and hands the
result on; a caller that needs only the histogram (criteria.strength) asks
joint_coincidences, which runs no pair route.  Besides them, the module
holds de-aliasing and the plain text serialisation format.  The
independent references the kernels are checked against live in ssd.oracle.

Every value read from the kernels is a multiset statistic over column
pairs or row pairs, so design_sums hands the kernels D's matrix with its
columns in ascending level order (_level_ordered) and one float32 one-hot
matrix of it, which the Gram route and the coincidence pass both read.
The pair sums have two exact routes, chosen by one rule (cells_sparse)
that compares time estimates fitted on both: one int64 bincount per chunk
of pairs, or float32 matrix products in tiles of columns of one level.
Every float32 value the Gram tiles or the coincidence pass read is an
integer of at most 2^24, which float32 holds and adds exactly; the hinge
sums of F that can pass 2^24 are summed in float64 (_gram_tile_sums).
The coincidence pass codes each row block's keys in that block's own
range, so no array outgrows the block, however large the key space.
"""

from __future__ import annotations

import itertools
import math
import warnings
from collections import Counter
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .gf import Field
    from .poly_labels import Label

# gf.MAX_ORDER, the largest field order, spelled out so that reading and
# evaluating a design loads neither the field nor the label modules, which
# realize and branch_fraction import when called; a test keeps them equal
MAX_RUNS = 4096
MAX_COLUMNS = 4096
# Gram cells per run in one tile of the one-hot Gram route of the pair
# kernel: a tile of h one-hot rows against all L one-hot columns has
# h L <= GRAM_TILE_CELLS * N cells, unless one design column alone is taller.
GRAM_TILE_CELLS = 512
# Pair codes, and cell-table bins, per chunk of its cell-count route.
PAIR_CELL_BUDGET = 1 << 13
# Row-pair products per block of the row coincidence kernel: a block of
# COINCIDENCE_BLOCK_CELLS // N rows against the rows from the block on.
COINCIDENCE_BLOCK_CELLS = 1 << 21
# Symbols per block where the design matrix is walked a block at a time:
# whole rows for the text writer and reader, the balance check and the
# one-hot matrix, whole columns for the relabelling check.  Bounds their
# temporaries.
MATRIX_BLOCK_CELLS = 1 << 16
# Bins per bincount of the balance check: a tile of columns whose levels
# sum to at most this many is counted at once.
BALANCE_BINS = 1 << 16


class Design:
    """N x m symbol matrix; column i takes values 0..levels[i]-1.

    The matrix is stored in the narrowest unsigned dtype that holds a symbol,
    symbol_dtype(levels): uint8 up to 256 levels, uint16 up to MAX_RUNS.
    Code that builds a number from symbols, such as x_i s_j + x_j, widens
    them first.  The matrix is a read-only copy of the input, so writing to
    the input or to a view of it cannot change the design; only a
    C-contiguous array of that dtype that owns its data and is already
    read-only (such as another design's matrix) is taken without a copy,
    which is how the constructors below hand over the fresh arrays they
    build.  The symbol range is checked on the input, before it is
    narrowed, and a float input must hold integers, which are cast.
    is_balanced is settled by the constructor; nothing else is kept.
    """

    __slots__ = ("matrix", "levels", "labels", "is_balanced")

    def __init__(self, matrix, levels, labels=None, require_balanced=True):
        m = np.asarray(matrix)
        if m.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        if m.dtype.kind == "f":
            # before any cast, which would truncate 0.5 to 0 and warn on NaN
            bad = np.flatnonzero(~(np.isfinite(m) & (m == np.trunc(m))).all(0))
            if bad.size:
                raise ValueError(f"column {bad[0]} has symbols that are not "
                                 "integers")
        if m.dtype.kind not in "iu":
            m = m.astype(np.int64)
        N, cols = m.shape
        levels = tuple(int(s) for s in levels)
        lev = _check_layout(N, cols, levels)
        # on the input's own dtype: narrowing first would wrap 300 to 44
        _check_symbol_range(m.min(axis=0), m.max(axis=0), lev)
        dtype = symbol_dtype(levels)
        if not (m is matrix and m.dtype == dtype and m.flags.c_contiguous
                and m.flags.owndata and not m.flags.writeable):
            m = np.array(m, dtype=dtype, order="C")
        unbalanced = _first_unbalanced(m, lev)
        if require_balanced and unbalanced is not None:
            raise ValueError(f"column {unbalanced} is unbalanced")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != cols:
                raise ValueError("one label per column is required")
        m.setflags(write=False)
        self.matrix = m
        self.levels = levels
        self.labels = labels
        self.is_balanced = unbalanced is None

    @property
    def N(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self):
        return f"Design({self.N} runs, {level_profile(self.levels)})"


def level_profile(levels) -> str:
    """Level counts as printed: "s^m" when all are equal, else in column order."""
    if len(set(levels)) == 1:
        return f"{levels[0]}^{len(levels)}"
    return " ".join(map(str, levels))


def _check_layout(N: int, cols: int, levels: tuple[int, ...]) -> np.ndarray:
    """The checks of a design's shape and levels, before any symbol is
    read, in a fixed order, each naming the first column at fault: runs,
    columns, one level count per column, size, level count,
    divisibility.  Returns the levels as an int64 array."""
    if N == 0:
        raise ValueError("a design needs at least one run")
    if cols == 0:
        raise ValueError("a design needs at least one column")
    if len(levels) != cols:
        raise ValueError("one level count per column is required")
    _check_design_size(N, cols)
    lev = np.asarray(levels, dtype=np.int64)
    bad = np.flatnonzero(lev < 2)
    if bad.size:
        raise ValueError(f"column {bad[0]} must have at least 2 levels")
    bad = np.flatnonzero(N % lev)
    if bad.size:
        i = bad[0]
        raise ValueError(f"run count {N} not divisible by {levels[i]} "
                         f"levels of column {i}")
    return lev


def _check_symbol_range(lo: np.ndarray, hi: np.ndarray,
                        lev: np.ndarray) -> None:
    """Reject the first column whose smallest symbol lo is negative or whose
    largest hi is not below its level count lev: the check after
    _check_layout and before balance."""
    bad = np.flatnonzero((lo < 0) | (hi >= lev))
    if bad.size:
        i = bad[0]
        raise ValueError(f"column {i} has symbols outside 0..{lev[i] - 1}")


def _check_design_size(N: int, m: int) -> None:
    """Reject a design of more than MAX_RUNS runs or MAX_COLUMNS columns."""
    if N > MAX_RUNS or m > MAX_COLUMNS:
        raise ValueError(f"design size {N}x{m} exceeds the supported "
                         f"{MAX_RUNS}x{MAX_COLUMNS}")


def symbol_dtype(levels) -> np.dtype:
    """The narrowest unsigned dtype that holds every symbol of the levels."""
    return np.min_scalar_type(max(levels) - 1)


def _first_unbalanced(matrix: np.ndarray, lev: np.ndarray) -> int | None:
    """First column whose symbols are not equally frequent, or None.

    Symbols must already lie in range.  The columns are taken in tiles
    whose levels sum to at most BALANCE_BINS (or one column alone), so the
    check costs O(N m) whatever the levels.  Within a tile each column's
    symbols are shifted into its own bins, and each block of about
    MATRIX_BLOCK_CELLS symbols (whole rows of the tile) is counted with one
    bincount into one code buffer.  Tiles are checked in column order, so
    the first column at fault is named.
    """
    N, m = matrix.shape
    ends = np.cumsum(lev)
    c0 = 0
    while c0 < m:
        # the widest run of columns from c0 whose levels fit the bins
        base = ends[c0] - lev[c0]
        c1 = max(c0 + 1, int(np.searchsorted(ends, base + BALANCE_BINS,
                                             side="right")))
        tile = lev[c0:c1]
        starts = ends[c0:c1] - tile - base
        L = int(ends[c1 - 1] - base)
        rows = max(1, MATRIX_BLOCK_CELLS // (c1 - c0))
        codes = np.empty(min(rows, N) * (c1 - c0), dtype=np.intp)
        counts = np.zeros(L, dtype=np.intp)
        for r0 in range(0, N, rows):
            block = matrix[r0:r0 + rows, c0:c1]
            np.add(block, starts, out=codes[:block.size].reshape(block.shape))
            counts += np.bincount(codes[:block.size], minlength=L)
        off = np.logical_or.reduceat(counts != np.repeat(N // tile, tile),
                                     starts)
        if off.any():
            return c0 + int(np.argmax(off))
        c0 = c1
    return None


# -- construction ---------------------------------------------------------------

def _frozen(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def realize(field: Field, n: int, labels) -> Design:
    """Evaluate the labels at every point of F_s^n, one column per label.

    The design size is checked before any label is evaluated.
    """
    from .gf import point_count
    from .poly_labels import eval_labels
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    _check_design_size(point_count(field.order, n, MAX_RUNS), len(labels))
    return Design(_frozen(eval_labels(field, labels, n)),
                  (field.order,) * len(labels), labels=labels)


def select_columns(D: Design, indices) -> Design:
    """The design of the given columns, in the given order, balanced or not."""
    indices = list(indices)
    matrix = D.matrix.take(indices, axis=1)
    levels = tuple(D.levels[i] for i in indices)
    labels = tuple(D.labels[i] for i in indices) if D.labels else None
    return Design(_frozen(matrix), levels, labels=labels,
                  require_balanced=False)


def check_fraction_runs(runs: int) -> None:
    """Reject a fraction that keeps more than MAX_RUNS runs."""
    if runs > MAX_RUNS:
        raise ValueError(f"the fraction keeps {runs} runs, more than "
                         f"the supported {MAX_RUNS}")


def check_branch_labels(count: int, shown: str | None = None) -> None:
    """Reject a branch of `count` labels that can keep more than
    MAX_COLUMNS columns: it drops at least the branching label.  The
    message names the count as `shown` when given."""
    if count - 1 > MAX_COLUMNS:
        raise ValueError(f"branching {shown or count} labels keeps more than "
                         f"the supported {MAX_COLUMNS} columns")


def branch_fraction(field: Field, n: int, labels, branch_label: Label,
                    g_levels) -> Design:
    """Keep the points where the branch column's value lies in g_levels,
    distinct values that form a proper subset of 0..s-1.

    The branch column itself is dropped; rows are grouped by branch value in
    ascending order, original point order within each group.  Every remaining
    column must come out balanced.
    """
    from .gf import point_count
    from .poly_labels import eval_labels
    labels = list(labels)
    g = sorted(int(v) for v in g_levels)
    s = field.order
    if not g:
        raise ValueError("the kept level set is empty")
    if len(set(g)) != len(g):
        raise ValueError("the kept levels must be distinct")
    if len(g) >= s or any(v < 0 or v >= s for v in g):
        raise ValueError(f"kept levels must be a proper subset of 0..{s - 1}")
    check_branch_labels(len(labels))
    # a nonempty level of a label column holds a multiple of s^(n-1) points,
    # so no fraction of more than s * MAX_RUNS points fits in MAX_RUNS runs
    point_count(s, n, s * MAX_RUNS)
    branch_col = eval_labels(field, [branch_label], n)[:, 0]
    rows = np.concatenate([np.flatnonzero(branch_col == v) for v in g])
    check_fraction_runs(len(rows))
    matrix = eval_labels(field, labels, n, rows)
    # the branching column is matched (and removed) by value over all
    # points, so any label that evaluates to the same column counts as the
    # branch; only the labels that match it on the kept rows can
    cand = np.flatnonzero((matrix == branch_col[rows, None]).all(axis=0))
    full = eval_labels(field, [labels[i] for i in cand], n)
    drop = cand[(full == branch_col[:, None]).all(axis=0)]
    if not drop.size:
        raise ValueError("branching label is not one of the design labels")
    keep = np.delete(np.arange(len(labels)), drop)
    if not keep.size:
        raise ValueError("the branch keeps no column")
    try:
        return Design(_frozen(matrix.take(keep, axis=1)), (s,) * len(keep),
                      labels=[labels[i] for i in keep])
    except ValueError as exc:
        raise ValueError(f"branching left an unbalanced column: {exc}") from exc


def column_levels(D: Design, i: int) -> int:
    """Level count of column i, which must lie in 0..m-1 (no negative index)."""
    if not 0 <= i < D.m:
        raise ValueError(f"column index {i} outside 0..{D.m - 1}")
    return D.levels[i]


def replace_column(D: Design, col_index: int, table) -> Design:
    """Substitute column col_index by the rows of a replacement table.

    The table has one row per level of the old column; a run with old symbol v
    receives row v.  Each table column must be balanced on its own symbol set,
    so overall balance is preserved and the column count grows by t - 1.
    """
    s_old = column_levels(D, col_index)
    table = np.asarray(table)
    if table.ndim == 1:
        table = table[:, None]
    if table.shape[0] != s_old:
        raise ValueError(
            f"replacement table needs {s_old} rows, got {table.shape[0]}")
    try:
        new = Design(table, table.max(axis=0) + 1)
    except ValueError as exc:
        raise ValueError(f"replacement table: {exc}") from None
    block = new.matrix[D.matrix[:, col_index], :]
    levels = D.levels[:col_index] + new.levels + D.levels[col_index + 1:]
    matrix = np.concatenate(
        [D.matrix[:, :col_index], block, D.matrix[:, col_index + 1:]], axis=1,
        dtype=symbol_dtype(levels))
    return Design(_frozen(matrix), levels)


# -- the kernel entry -------------------------------------------------------------

def level_groups(D: Design) -> tuple[tuple[int, int], ...]:
    """(level count, number of columns) of each level group, levels ascending."""
    return tuple(sorted(Counter(D.levels).items()))


def _level_ordered(D: Design) -> tuple[np.ndarray, list[int]]:
    """D's matrix and levels, columns in ascending level order by a stable
    sort: D's own matrix, uncopied, when the levels already ascend."""
    levels = sorted(D.levels)
    if list(D.levels) == levels:
        return D.matrix, levels
    return D.matrix.take(np.argsort(D.levels, kind="stable"), axis=1), levels


def design_sums(D: Design) -> tuple[np.ndarray, np.ndarray,
                                    dict[tuple[int, ...], int]]:
    """(P, F, joint): every exact sum an evaluation reads, over the columns
    of _level_ordered(D), whose one one-hot matrix both passes share.

    P and F are integer sums over the cell tables n_ab of the pairs i < j
    of the ordered columns,

        P = sum_ab n_ab^2    and    F = sum_ab |s_i s_j n_ab - N|,

    as two int64 vectors in row-major pair order, the order of
    np.triu_indices(m, 1): pair (i, j) is entry
    i m - i (i + 1) / 2 + j - i - 1.  Every statistic read from them is
    a multiset over the pairs, so the column order cannot change it.  Two
    exact routes, chosen by cells_sparse:

    - cell count, when cells_sparse estimates it no slower: each chunk of
      pairs is one bincount of the codes x_i s_j + x_j, shifted into the
      pair's own bins, and P and F are per-pair sums of the counts;
    - one-hot Gram otherwise: the (i, j) block of G = B^T B is the cell
      table, so P and F are block sums of G, in tiles of columns of one
      level, each multiplied against the columns after its first, each
      about GRAM_TILE_CELLS * N Gram cells.

    joint is the histogram of joint_coincidences, counted per row block
    in the block's own key range.  The level groups and the Gram tile plan
    are worked out once here and handed to the route rule and both passes.

    No m x m, L x L, pairs x N or N x N temporary exists.
    """
    X, levels = _level_ordered(D)
    groups = level_groups(D)
    tiles = _gram_tiles(groups, D.N)
    B = _one_hot(X, levels)
    P, F = (_cell_count_sums(X, levels) if cells_sparse(D, tiles)
            else _gram_tile_sums(B, levels, groups, tiles))
    return P, F, _joint_coincidences(B, groups)


def joint_coincidences(D: Design) -> dict[tuple[int, ...], int]:
    """The joint coincidence histogram of D, and no pair sums: it maps each
    per-level-group coincidence vector to its number of row pairs a < b.
    Entry g of a key counts the columns of level group g (level_groups
    order) in which the two rows agree; with equal levels the key is the
    1-tuple of the plain coincidence count.  Keys are tuples of ints and
    ascend, counted in each row block's own range (_joint_coincidences)."""
    return _joint_coincidences(_one_hot(*_level_ordered(D)), level_groups(D))


def _one_hot(X: np.ndarray, levels) -> np.ndarray:
    """Row indicator matrix (N, sum levels) of the symbol matrix X, each
    column's s indicator columns in symbol order, filled a block of about
    MATRIX_BLOCK_CELLS symbols (whole rows) at a time.

    float32: every product of it read here is an integer count <= 2^24,
    which float32 holds exactly.
    """
    L = sum(levels)
    B = np.zeros((len(X), L), dtype=np.float32)
    starts = np.cumsum(levels) - levels
    rows = max(1, MATRIX_BLOCK_CELLS // len(levels))
    for r0 in range(0, len(X), rows):
        hot = X[r0:r0 + rows] + starts
        hot += (np.arange(r0, r0 + len(hot)) * L)[:, None]
        B.reshape(-1)[hot] = 1.0
    return B


def _joint_coincidences(B: np.ndarray, groups) -> dict[tuple[int, ...], int]:
    """The joint coincidence histogram of a design from the one-hot matrix
    B of its columns in ascending level order, and its level_groups: group
    g is the g-th run of columns of B.

    Row-tiled: each block of COINCIDENCE_BLOCK_CELLS // N rows is
    multiplied against the rows from the block on, per group column slice
    of B, so no N x N array exists.  The products are agreement counts
    <= m, exact in float32.  Key entry g of a block's row pairs lies in
    lo_g .. lo_g + span_g - 1.  When the product of the spans is at most
    the block's row-pair count, one bincount of the mixed-radix codes of
    the offsets from lo counts the block; otherwise a Counter counts its
    key tuples.  Either way nothing outgrows the block's agreement counts,
    so COINCIDENCE_BLOCK_CELLS alone bounds memory, at any key space.  A
    block of the last row alone has no row pairs and is skipped.
    """
    slabs = np.split(B, np.cumsum([s * mg for s, mg in groups])[:-1], axis=1)
    acc = Counter()
    N = B.shape[0]
    rows = max(1, COINCIDENCE_BLOCK_CELLS // N)
    for r0 in range(0, N - 1, rows):
        upper = np.arange(r0, N) > np.arange(r0, min(r0 + rows, N))[:, None]
        parts = [(Bg[r0:r0 + rows] @ Bg[r0:].T)[upper].astype(np.int64)
                 for Bg in slabs]
        lo = [int(p.min()) for p in parts]
        span = [int(p.max()) - a + 1 for p, a in zip(parts, lo)]
        if math.prod(span) <= parts[0].size:
            for p, a in zip(parts, lo):
                p -= a
            counts = np.bincount(np.ravel_multi_index(parts, span))
            codes = np.flatnonzero(counts)
            keys = zip(*((k + a).tolist()
                         for k, a in zip(np.unravel_index(codes, span), lo)))
            acc.update(dict(zip(keys, counts[codes].tolist())))
        else:
            acc.update(zip(*(p.tolist() for p in parts)))
    return dict(sorted(acc.items()))


def cells_sparse(D: Design, tiles) -> bool:
    """True when counting each pair's cells is estimated to take no longer
    than the Gram tiles (tiles, D's _gram_tiles plan).

    The estimates are in ns, fitted on timings of both routes over the
    catalog, the N = s^2 families for s = 3..32, thm4 for n = 3..10, the
    benchmark's evaluate shapes and column subsets of the 4096-run designs
    (2-vCPU Xeon, numpy 2.4, one BLAS thread): counting takes about 7 ns
    per code and 2 ns per bin, 7 N m (m - 1) / 2 + 2 sum_{i<j} s_i s_j;
    the Gram tiles take about N / 50 + 4 ns per Gram entry they compute
    (the pairs' cells and the blocks below them within a tile), plus
    20 us.  On those shapes the chosen route was never the slower one.
    """
    N, m = D.N, D.m
    bounds = [0, *itertools.accumulate(sorted(D.levels))]
    L = bounds[-1]
    cells = (L * L - sum(s * s for s in D.levels)) // 2
    entries = sum((bounds[c1] - bounds[c0]) * (L - bounds[c0 + 1])
                  for c0, c1 in tiles)
    return (7 * N * m * (m - 1) // 2 + 2 * cells
            <= entries * (N / 50 + 4) + 20000)


def pair_starts(m: int) -> np.ndarray:
    """Entry of pair (i, i + 1) in the row-major pair vectors of
    design_sums, i = 0..m: row i of the pairs is the entries
    starts[i] .. starts[i + 1] - 1."""
    i = np.arange(m + 1)
    return i * m - i * (i + 1) // 2


def _cell_count_sums(X: np.ndarray, levels) -> tuple[np.ndarray, np.ndarray]:
    """P and F of X, of the given levels, by counting each pair's cells.

    The pairs i < j are taken in row-major order, in chunks of at least
    one pair whose N codes per pair and s_i s_j bins per pair both stay
    within PAIR_CELL_BUDGET.  A chunk is filled one run of columns j of
    one row i at a time, from slices of the transposed m x N matrix (with
    equal levels s, one add of row i of its s-fold to the run), so no
    pair index array exists; each chunk's sums go straight into its slice
    of the pair vectors.  The matrix and its s-fold are int32 (codes are
    below s_i s_j <= 2^24), the codes and counts int64.
    """
    N, m = X.shape
    X = np.ascontiguousarray(X.T, dtype=np.int32)
    lev = np.asarray(levels, dtype=np.int64)
    equal = len(set(levels)) == 1
    XS = X * np.int32(lev[0]) if equal else None
    per = max(1, PAIR_CELL_BUDGET // max(N, int(lev.max()) ** 2))
    P = np.empty(m * (m - 1) // 2, dtype=np.int64)
    F = np.empty_like(P)
    codes = np.empty((per, N), dtype=np.int64)
    cells = np.full(per, lev[0] ** 2)                   # s_i s_j per pair

    def flush(p, k):
        c, w = codes[:k], cells[:k]
        off = np.cumsum(w) - w
        c += off[:, None]
        n = np.bincount(c.ravel(), minlength=int(off[-1] + w[-1]))
        P[p:p + k] = np.add.reduceat(n * n, off)
        n *= np.repeat(w, w)
        n -= N
        np.abs(n, out=n)
        F[p:p + k] = np.add.reduceat(n, off)

    p = k = 0
    for i in range(m - 1):
        j = i + 1
        while j < m:
            j1 = min(m, j + per - k)
            c = codes[k:k + j1 - j]
            if equal:
                np.add(XS[i], X[j:j1], out=c)
            else:
                np.multiply(lev[j:j1, None], X[i], out=c)
                c += X[j:j1]
                np.multiply(lev[j:j1], lev[i], out=cells[k:k + j1 - j])
            k += j1 - j
            j = j1
            if k == per:
                flush(p, k)
                p, k = p + k, 0
    if k:
        flush(p, k)
    return P, F


def _gram_tile_sums(B: np.ndarray, levels, groups,
                    tiles) -> tuple[np.ndarray, np.ndarray]:
    """P and F from tiles of the float32 one-hot Gram of the one-hot
    matrix B of columns that take the given levels, in ascending order,
    given their level_groups and its _gram_tiles plan.

    Each level group is one run of B, and each tile of _gram_tiles is t
    columns of one level s0: its h = t s0 one-hot rows are multiplied
    against the one-hot columns of the columns after its first, where the
    pairs of its first column start.  Every tile writes its Gram block
    into one float32 workspace sized for the largest block.  Its row block
    sums of n^2 are one einsum over the s0 rows of each tile column, with
    no n^2 temporary; the block then becomes its hinge terms in place, and
    their row block sums are one reduction.  Its column block sums are,
    per level group of s levels, one product of the row sums, viewed as
    (columns, s) blocks, with a vector of s ones.  The pairs of a tile's columns are one slice of the
    pair vectors.

    Exact: Gram entries are counts n <= N.  Summed over a block, n^2 gives
    P <= N^2 <= 2^24.  Since sum_ab n_ab = N over the s_i s_j cells of a
    table, F = 2 sum_ab max(N - s_i s_j n_ab, 0), and each term lies in
    [0, N]: s_i s_j <= 2^24 is exact in float32, and so is its product by
    n whenever that is below N <= 2^24, while rounding cannot take a
    product >= N below N.  A row block sum is then at most N^2 <= 2^24 for
    either term (sum_a n_ab^2 <= (sum_a n_ab)^2, and s_i hinge terms of at
    most N each), a sum of nonnegative integers that float32 gets exactly
    in any order.  So is a column block sum of P, and one of the hinge
    terms, at most s_i s_j N, when s_i s_j N <= 2^24; otherwise that
    group's column block sums run in float64.
    """
    m, N = len(levels), B.shape[0]
    bounds = [0, *itertools.accumulate(levels)]
    L = bounds[-1]
    firsts = [0, *itertools.accumulate(mg for _, mg in groups)]
    runs = [(s, a, b) for (s, _), a, b in zip(groups, firsts, firsts[1:])]
    # tile (c0, c1) against the columns from c0 + 1 on: h x w Gram entries
    shapes = [(bounds[c1] - bounds[c0], L - bounds[c0 + 1])
              for c0, c1 in tiles]
    cols_max = max(c1 - c0 for c0, c1 in tiles)
    work = np.empty(max(h * w for h, w in shapes), dtype=np.float32)
    row_sums = np.empty((2, cols_max * (L - levels[0])), dtype=np.float32)
    sums = np.empty((2, cols_max, m - 1), dtype=np.int64)
    weight = np.repeat(np.asarray(levels, dtype=np.float32), levels)
    # tile column k and column c0 + 1 + l form a pair when l >= k
    later = np.arange(m - 1) >= np.arange(cols_max)[:, None]
    starts = pair_starts(m)
    P = np.empty(m * (m - 1) // 2, dtype=np.int64)
    F = np.empty_like(P)
    for (c0, c1), (h, w) in zip(tiles, shapes):
        s0, t = levels[c0], c1 - c0
        r0, r1, r2 = bounds[c0], bounds[c1], bounds[c0 + 1]
        G = work[:h * w].reshape(h, w)
        np.matmul(B[:, r0:r1].T, B[:, r2:], out=G)
        R = row_sums[:, :t * w].reshape(2, t, w)
        rows = G.reshape(t, s0, w)
        np.einsum("ksw,ksw->kw", rows, rows, out=R[0])
        np.multiply(G, s0 * weight[r2:], out=G)
        np.subtract(N, G, out=G)
        np.maximum(G, 0, out=G)
        np.add.reduce(rows, axis=1, out=R[1])
        S = sums[:, :t, :m - c0 - 1]
        for s, a, b in runs:
            a = max(a, c0 + 1)
            if a < b:
                ones = np.ones(s, np.float32 if s0 * s * N <= 1 << 24
                               else np.float64)
                blocks = R[:, :, bounds[a] - r2:bounds[b] - r2]
                S[:, :, a - c0 - 1:b - c0 - 1] = (
                    blocks.reshape(2, t, b - a, s) @ ones)
        pairs = later[:t, :m - c0 - 1]
        P[starts[c0]:starts[c1]] = S[0][pairs]
        F[starts[c0]:starts[c1]] = S[1][pairs]
    F *= 2
    return P, F


def _gram_tiles(groups, N: int) -> list[tuple[int, int]]:
    """Tiles (c0, c1) of the Gram route over the columns in ascending level
    order, given the level_groups.

    A tile is a run of columns of one level s and at most
    GRAM_TILE_CELLS * N / L one-hot rows, or a single column that alone
    is taller, so its Gram block has about GRAM_TILE_CELLS * N cells:
    few enough to stay in cache at small N, enough for full-speed matrix
    products at large N.  The last tile of a level may be shorter.
    """
    height = max(1, GRAM_TILE_CELLS * N // sum(s * mg for s, mg in groups))
    tiles, a = [], 0
    for s, mg in groups:
        step = max(1, height // s)
        tiles += [(c, min(c + step, a + mg)) for c in range(a, a + mg, step)]
        a += mg
    return tiles


# -- de-aliasing ------------------------------------------------------------------

def remove_fully_aliased(D: Design) -> Design:
    """Drop the later column of every fully aliased pair (first index kept)."""
    removed = {j for copies in _relabelled_copies(D) for j in copies[1:]}
    if not removed:
        return D
    return select_columns(D, [i for i in range(D.m) if i not in removed])


def _relabelled_copies(D: Design) -> list[list[int]]:
    """Ascending classes of two or more columns with equal levels that are
    identical up to a level permutation, in order of their first column.

    Each symbol is renamed by the row of its first appearance in its column
    (so names ascend in order of first appearance), tile by tile; two
    columns are relabellings exactly when their renamed columns agree."""
    rows = np.arange(D.N, dtype=np.uint16)      # N <= MAX_RUNS < 2^16
    classes = {}
    tile = max(1, MATRIX_BLOCK_CELLS // D.N)
    for c0 in range(0, D.m, tile):
        X = D.matrix[:, c0:c0 + tile].T
        first = np.full((len(X), int(X.max()) + 1), D.N, dtype=np.uint16)
        np.minimum.at(first, (np.arange(len(X))[:, None], X), rows)
        for k, col in enumerate(np.take_along_axis(first, X, axis=1), c0):
            classes.setdefault((D.levels[k], col.tobytes()), []).append(k)
    return [copies for copies in classes.values() if len(copies) > 1]


# -- plain text format -------------------------------------------------------------

FORMAT_HEADER = "# ssd v1"


def _text_blocks(D: Design):
    """The text of D as bytes: the header, then one block of rows at a time.

    Each symbol has a fixed-width record in a byte table, its digits and a
    space (a newline in the last column) padded with NUL bytes to 2, 4 or 8
    bytes.  Through an unsigned view of the table, a block of about
    MATRIX_BLOCK_CELLS symbols becomes text with one take of whole records,
    indexed from one reused workspace; the padding is stripped unless every
    symbol has a single digit.
    """
    yield (f"{FORMAT_HEADER}\n{D.N} {D.m}\n"
           f"{' '.join(map(str, D.levels))}\n").encode("ascii")
    s = max(D.levels)
    # the smallest power of two above the digits of the widest symbol
    width = 1 << len(str(s - 1)).bit_length()
    records = [f"{v} " for v in range(s)] + [f"{v}\n" for v in range(s)]
    table = np.array(records, dtype=f"S{width}").view(f"u{width}")
    last = np.zeros(D.m, dtype=np.intp)
    last[-1] = s
    rows = max(1, MATRIX_BLOCK_CELLS // D.m)
    index = np.empty(min(rows, D.N) * D.m, dtype=np.intp)
    for r0 in range(0, D.N, rows):
        block = D.matrix[r0:r0 + rows]
        codes = index[:block.size]
        np.add(block, last, out=codes.reshape(block.shape))
        text = table.take(codes).tobytes()
        yield text if width == 2 else text.translate(None, b"\0")


def read_design(path, allow_unbalanced=False) -> Design:
    """Read the three header lines with readline, check the shape and levels
    they give with Design's own checks (_check_layout), so that the size is
    checked before anything is allocated, then parse the body into the
    narrow matrix a row block at a time (_read_blocks).  The design
    takes that matrix without a copy and still runs every check.  The
    text is never held as one string, and no int32 copy of the whole body
    exists.

    Every other file, such as one with no runs or columns, one whose level
    line does not give m levels, or one whose body is malformed, short or
    long, is parsed whole by one np.loadtxt, so its verdict and the row
    number in it do not depend on the block size.

    The body is read as one list of lines, not a block of lines at a
    time.  Reading the file a block at a time too lowered the
    construct-fields benchmark's peak by a further 2.3 MB, but left its
    long-lived worker
    faulting in fresh pages for the later ops: its wall_s rose by 23%,
    and a thm4 GF(16) n = 3 build after a 4096 x 545 read took about 11k
    minor faults and 73 ms instead of 0.6k and 36 ms.  Parsing the stream
    line by line did the same (about 5x the minor faults and 40% more time
    for a 3840 x 272 thm8 build run after a 4096 x 545 read).
    """
    with open(path, "r", encoding="ascii") as fh:
        if _header_line(fh) != FORMAT_HEADER:
            raise ValueError(f"missing '{FORMAT_HEADER}' header line")
        try:
            N, m = map(int, _header_line(fh).split())
            levels = tuple(map(int, _header_line(fh).split()))
        except ValueError as exc:
            raise ValueError(f"malformed design file: {exc}") from exc
        lines = fh.readlines()
    matrix = None
    if min(N, m) > 0 and len(levels) == m:      # a header that lays out N x m
        matrix = _read_blocks(lines, N, _check_layout(N, m, levels))
    if matrix is None:
        matrix = _parse_body(lines)
        if len(levels) != m:
            raise ValueError(f"expected {m} level entries, found {len(levels)}")
        if matrix.shape != (N, m):
            raise ValueError(f"expected {N} rows of {m} symbols")
    return Design(matrix, levels, require_balanced=not allow_unbalanced)


def _parse_body(lines) -> np.ndarray:
    """The rows of the lines as an int32 matrix, blank lines skipped.

    int32 is wide enough that a symbol out of range, such as -1 or 70000,
    reaches the range check; a token that int32 cannot hold, one that is
    not an integer, rows of unequal length or no rows at all make the
    body malformed.
    """
    try:
        # numpy < 2 only warns when it parses '1.0' as an integer, and an
        # empty body only warns too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return np.loadtxt(lines, dtype=np.int32, ndmin=2, comments=None)
    except (ValueError, Warning) as exc:
        raise ValueError(f"malformed design file: {exc}") from exc


def _read_blocks(lines, N: int, lev: np.ndarray) -> np.ndarray | None:
    """The body lines as the frozen N x m matrix of symbol_dtype(lev),
    parsed a block of about MATRIX_BLOCK_CELLS symbols at a time; None when
    a block is malformed, holds no rows (all blank) or rows of another
    length, or the blocks do not add up to N rows.

    Each block is parsed as int32 and its per-column minima and maxima
    are folded into running extrema before it is narrowed into the
    matrix, so the range check sees the raw symbols of every row.
    """
    m = len(lev)
    X = np.empty((N, m), dtype=symbol_dtype(lev))
    lo = np.full(m, np.iinfo(np.int32).max, dtype=np.int32)
    hi = np.full(m, np.iinfo(np.int32).min, dtype=np.int32)
    step = max(1, MATRIX_BLOCK_CELLS // m)
    r = 0
    for i in range(0, len(lines), step):
        try:
            block = _parse_body(lines[i:i + step])
        except ValueError:
            return None
        if block.shape[1] != m or r + len(block) > N:
            return None
        np.minimum(lo, block.min(axis=0), out=lo)
        np.maximum(hi, block.max(axis=0), out=hi)
        X[r:r + len(block)] = block     # wraps out-of-range symbols
        r += len(block)
    if r != N:
        return None
    _check_symbol_range(lo, hi, lev)
    return _frozen(X)


def _header_line(fh) -> str:
    """The next nonblank line, stripped; '' at the end of the stream."""
    for line in iter(fh.readline, ""):
        if line.strip():
            return line.strip()
    return ""


def write_design(D: Design, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_text_blocks(D))
