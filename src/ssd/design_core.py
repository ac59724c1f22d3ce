"""Design matrices and structural operations.

A Design is an immutable N x m symbol matrix with per-column level counts and
optional label provenance.  Everything downstream (criteria, bounds, the
catalog) works on this type.  It keeps no evaluation state: the Gram sums P
and F (pair_gram_sums) and the joint row coincidence histogram
(joint_coincidence_counts) are computed on every call, so each caller asks
once and hands the result on.  The module also holds the structural pair
machinery: two-column cell tables, the pair kernel whose integer sums drive
every exact pairwise aliasing value, the row-tiled coincidence kernel, pair
classification, and the plain text serialisation format.

The pair kernel has two exact routes, chosen by one rule (cells_sparse).
When the cell tables of the pairs i <= j have at least as many cells as
runs in total, sum_{i <= j} s_i s_j >= N m (m + 1) / 2, most cells are
empty and each chunk of pairs is counted with one int64 bincount.
Otherwise the tables are blocks of the one-hot Gram matrix, computed by a
float32 matrix product in tiles of whole design columns, each about
GRAM_TILE_CELLS * N Gram cells, in one workspace per call.  With
N <= 4096, a Gram entry is a count n <= N and a block's sum of squares is
at most N^2 <= 2^24, integers that float32 holds and adds exactly.  F is
read from the hinge sum 2 sum_ab max(N - s_i s_j n_ab, 0), equal to
sum_ab |s_i s_j n_ab - N| because sum_ab n_ab = N; each term lies in
[0, N], exact in float32, and the block sums that can exceed 2^24 run in
float64.  The coincidence kernel's products are agreement counts
<= m <= 4096.
"""

from __future__ import annotations

import io
import itertools
import math
import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import MAX_ORDER, Field, point_count
from .poly_labels import Label, eval_labels

MAX_RUNS = MAX_ORDER
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
# Largest mixed-radix code space of the joint coincidence histogram that is
# counted with bincount; beyond it the blocks are reduced by np.unique.
JOINT_BINS_MAX = 1 << 22
# Symbols per block where the design matrix is walked a block at a time:
# whole rows for the text writer and the balance check, whole columns for
# the relabelling check.  Bounds their temporaries.
MATRIX_BLOCK_CELLS = 1 << 16

ORTHOGONAL = "orthogonal"
FULLY_ALIASED = "fully_aliased"
SEMI_ORTHOGONAL = "semi_orthogonal"
PARTIAL = "partial"


@dataclass(frozen=True)
class PairClass:
    """Dependency class of a column pair, with its exact projected A2 value."""

    kind: str
    a2: Fraction


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
    narrowed.  is_balanced is settled by the constructor; nothing else is
    kept.
    """

    __slots__ = ("matrix", "levels", "labels", "is_balanced")

    def __init__(self, matrix, levels, labels=None, require_balanced=True):
        m = np.asarray(matrix)
        if m.dtype.kind not in "iu":
            m = np.asarray(matrix, dtype=np.int64)
        if m.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        N, cols = m.shape
        if N == 0:
            raise ValueError("a design needs at least one run")
        levels = tuple(int(s) for s in levels)
        if len(levels) != cols:
            raise ValueError("one level count per column is required")
        _check_design_size(N, cols)
        lev = np.asarray(levels, dtype=np.int64)
        # whole-matrix checks in a fixed order, each naming the first column
        # at fault: level count, divisibility, symbol range, balance
        bad = np.flatnonzero(lev < 2)
        if bad.size:
            raise ValueError(f"column {bad[0]} must have at least 2 levels")
        bad = np.flatnonzero(N % lev)
        if bad.size:
            i = bad[0]
            raise ValueError(f"run count {N} not divisible by {levels[i]} "
                             f"levels of column {i}")
        # on the input's own dtype: narrowing first would wrap 300 to 44
        bad = np.flatnonzero((m.min(axis=0) < 0) | (m.max(axis=0) >= lev))
        if bad.size:
            i = bad[0]
            raise ValueError(f"column {i} has symbols outside 0..{levels[i] - 1}")
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


def _check_design_size(N: int, m: int) -> None:
    """Reject a design of more than MAX_RUNS runs or MAX_COLUMNS columns."""
    if N > MAX_RUNS or m > MAX_COLUMNS:
        raise ValueError(f"design size {N}x{m} exceeds the supported "
                         f"{MAX_RUNS}x{MAX_COLUMNS}")


def symbol_dtype(levels) -> np.dtype:
    """The narrowest unsigned dtype that holds every symbol of the levels."""
    return np.min_scalar_type(max(levels, default=1) - 1)


def _first_unbalanced(matrix: np.ndarray, lev: np.ndarray) -> int | None:
    """First column whose symbols are not equally frequent, or None.

    Symbols must already lie in range.  Each column's symbols are shifted
    into its own bins, and each block of about MATRIX_BLOCK_CELLS contiguous
    symbols (whole rows) is counted with one bincount into one code buffer.
    """
    N, m = matrix.shape
    if not m:
        return None
    starts = np.cumsum(lev) - lev
    L = int(lev.sum())
    rows = max(1, MATRIX_BLOCK_CELLS // m)
    codes = np.empty(min(rows, N) * m, dtype=np.intp)
    counts = np.zeros(L, dtype=np.intp)
    for r0 in range(0, N, rows):
        block = matrix[r0:r0 + rows]
        np.add(block, starts, out=codes[:block.size].reshape(block.shape))
        counts += np.bincount(codes[:block.size], minlength=L)
    off = np.logical_or.reduceat(counts != np.repeat(N // lev, lev), starts)
    return int(np.argmax(off)) if off.any() else None


# -- construction ---------------------------------------------------------------

def realize(field: Field, n: int, labels) -> Design:
    """Evaluate the labels at every point of F_s^n, one column per label.

    The design size is checked before any label is evaluated.
    """
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    _check_design_size(point_count(field, n, MAX_RUNS), len(labels))
    return Design(_frozen(eval_labels(field, labels, n)),
                  (field.order,) * len(labels), labels=labels)


def column_juxtapose(*designs: Design) -> Design:
    """Concatenate designs side by side; run counts must agree."""
    if not designs:
        raise ValueError("nothing to juxtapose")
    N = designs[0].N
    if any(d.N != N for d in designs):
        raise ValueError("run counts differ across the juxtaposed designs")
    matrix = np.concatenate([d.matrix for d in designs], axis=1)
    levels = sum((d.levels for d in designs), ())
    labels = None
    if all(d.labels is not None for d in designs):
        labels = sum((d.labels for d in designs), ())
    return Design(_frozen(matrix), levels, labels=labels)


def row_juxtapose(*designs: Design) -> Design:
    """Stack designs on top of each other; level profiles must agree."""
    if not designs:
        raise ValueError("nothing to juxtapose")
    levels = designs[0].levels
    if any(d.levels != levels for d in designs):
        raise ValueError("level profiles differ across the juxtaposed designs")
    matrix = np.concatenate([d.matrix for d in designs], axis=0)
    return Design(_frozen(matrix), levels, labels=designs[0].labels)


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


def branch_fraction(field: Field, n: int, labels, branch_label: Label,
                    g_levels) -> Design:
    """Keep the points where the branch column's value lies in g_levels,
    distinct values that form a proper subset of 0..s-1.

    The branch column itself is dropped; rows are grouped by branch value in
    ascending order, original point order within each group.  Every remaining
    column must come out balanced.
    """
    labels = list(labels)
    g = sorted(int(v) for v in g_levels)
    s = field.order
    if not g:
        raise ValueError("the kept level set is empty")
    if len(set(g)) != len(g):
        raise ValueError("the kept levels must be distinct")
    if len(g) >= s or any(v < 0 or v >= s for v in g):
        raise ValueError(f"kept levels must be a proper subset of 0..{s - 1}")
    # the branch drops at least one label, so this bounds the columns kept
    if len(labels) - 1 > MAX_COLUMNS:
        raise ValueError(f"branching {len(labels)} labels keeps more than "
                         f"the supported {MAX_COLUMNS} columns")
    # a nonempty level of a label column holds a multiple of s^(n-1) points,
    # so no fraction of more than s * MAX_RUNS points fits in MAX_RUNS runs
    point_count(field, n, s * MAX_RUNS)
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
    table = np.asarray(table, dtype=np.int64)
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


# -- structural checks ------------------------------------------------------------

def is_oa(D: Design, t: int) -> bool:
    """True when every t-column projection is equireplicated."""
    if t < 1 or t > D.m:
        return False
    N = D.N
    for combo in itertools.combinations(range(D.m), t):
        size = 1
        for i in combo:
            size *= D.levels[i]
        if N % size:
            return False
        code = np.zeros(N, dtype=np.int64)
        for i in combo:
            code = code * D.levels[i] + D.matrix[:, i]
        counts = np.bincount(code, minlength=size)
        if not (counts == N // size).all():
            return False
    return True


def coincidences(D: Design, weights=None) -> np.ndarray:
    """N x N matrix of row coincidence counts (zero diagonal).

    With weights (one per column, e.g. the level counts), each agreement in
    column k contributes weights[k] instead of 1.  A dense reference for
    small designs: evaluation reads the row-tiled joint_coincidence_counts.
    """
    B, starts = _one_hot(D)
    if weights is not None:
        w = np.repeat(np.asarray(weights, dtype=np.float64),
                      [s for s in D.levels])
        delta = (B * w[None, :]) @ B.T
    else:
        delta = B @ B.T
    delta = np.rint(delta).astype(np.int64)
    np.fill_diagonal(delta, 0)
    return delta


def level_groups(D: Design) -> tuple[tuple[int, int], ...]:
    """(level count, number of columns) of each level group, levels ascending."""
    return tuple(sorted(Counter(D.levels).items()))


def joint_coincidence_counts(D: Design) -> dict[tuple[int, ...], int]:
    """Per-level-group coincidence vector -> number of row pairs a < b.

    Entry g of a key counts the columns of level group g (level_groups
    order) in which the two rows agree; with equal levels the key is the
    1-tuple of the plain coincidence count.  Keys ascend.  Row-tiled: each
    block of COINCIDENCE_BLOCK_CELLS // N rows is multiplied against the
    rows from the block on, per group column slice of the one-hot matrix,
    so no N x N array exists.  The products are agreement counts <= m,
    exact in float32.
    """
    return _row_coincidences(D)


def coincidence_counts(D: Design) -> dict[int, int]:
    """Row-pair coincidence count -> number of row pairs with that count.

    Keys ascend.  The total over the groups of joint_coincidence_counts.
    """
    return _coincidence_totals(joint_coincidence_counts(D))


def _coincidence_totals(joint: dict[tuple[int, ...], int]) -> dict[int, int]:
    """Sum each key of a joint coincidence histogram over its level groups."""
    out = Counter()
    for key, c in joint.items():
        out[sum(key)] += c
    return dict(sorted(out.items()))


def _row_coincidences(D: Design) -> dict[tuple[int, ...], int]:
    B = _one_hot(D)[0]
    groups = level_groups(D)
    if len(groups) == 1:
        slabs = [B]
    else:
        owner = np.repeat(np.asarray(D.levels), D.levels)
        slabs = [B[:, owner == s] for s, _ in groups]
        del B
    radix = [mg + 1 for _, mg in groups]
    bins = math.prod(radix)
    counted = bins <= JOINT_BINS_MAX
    acc = np.zeros(bins, dtype=np.int64) if counted else Counter()
    N = D.N
    rows = max(1, COINCIDENCE_BLOCK_CELLS // N)
    for r0 in range(0, N, rows):
        r1 = min(r0 + rows, N)
        upper = np.arange(r0, N)[None, :] > np.arange(r0, r1)[:, None]
        parts = [(Bg[r0:r1] @ Bg[r0:].T)[upper].astype(np.int64)
                 for Bg in slabs]
        if counted:
            acc += np.bincount(np.ravel_multi_index(parts, radix),
                               minlength=bins)
        else:
            keys, counts = np.unique(np.stack(parts, axis=1), axis=0,
                                     return_counts=True)
            acc.update(dict(zip(map(tuple, keys.tolist()), counts.tolist())))
    if not counted:
        return dict(sorted(acc.items()))
    codes = np.flatnonzero(acc)
    keys = zip(*(k.tolist() for k in np.unravel_index(codes, radix)))
    return dict(zip(keys, acc[codes].tolist()))


def _one_hot(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Row indicator matrix (N, sum levels) and the per-column start offsets.

    float32: every product of it read here is an integer count <= 2^24,
    which float32 holds exactly.
    """
    starts = np.concatenate([[0], np.cumsum(D.levels)])[:-1]
    total = int(sum(D.levels))
    B = np.zeros((D.N, total), dtype=np.float32)
    idx = D.matrix + starts[None, :]
    B[np.arange(D.N)[:, None], idx] = 1.0
    return B, starts


def pair_gram_sums(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Integer m x m sums over the cell tables n_ab of every column pair:

        P[i, j] = sum_ab n_ab^2    and    F[i, j] = sum_ab |s_i s_j n_ab - N|

    give every pairwise statistic exactly.  Diagonal entries refer to a
    column against itself.  Two exact routes, chosen by cells_sparse:

    - cell count, when the tables hold at most one run per cell on average:
      each chunk of column pairs i <= j is one bincount of the codes
      x_i s_j + x_j shifted into the chunk's own bins, and P and F are
      per-pair reduceat sums of the counts;
    - one-hot Gram otherwise: the (i, j) block of G = B^T B is the cell
      table, so P and F are block sums of G, computed in tiles of whole
      design columns against the columns from the tile onwards, each tile
      about GRAM_TILE_CELLS * N Gram cells.

    Either way no L x L or pairs x N temporary exists.
    """
    P, F = _upper_pair_sums(D)
    return _mirror_upper(P), _mirror_upper(F)


def _upper_pair_sums(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """P and F of pair_gram_sums for every pair i <= j, by the route that
    cells_sparse picks.  Entries below the diagonal are not defined."""
    route = _cell_count_sums if cells_sparse(D) else _gram_tile_sums
    return route(D)


def cells_sparse(D: Design) -> bool:
    """True when the pair cell tables i <= j hold at most one run per cell
    on average: sum_{i <= j} s_i s_j >= N m (m + 1) / 2."""
    L = sum(D.levels)
    cells = (L * L + sum(s * s for s in D.levels)) // 2
    return cells >= D.N * D.m * (D.m + 1) // 2


def _cell_count_sums(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Upper triangles of P and F by counting each pair's cells.

    The pairs i <= j are taken in row-major order, in chunks of at least
    one pair whose N codes per pair and s_i s_j bins per pair both stay
    within PAIR_CELL_BUDGET.  The columns are read as the rows of the
    transposed m x N matrix, widened to int64 once, so the codes and the
    counts are int64 throughout.
    """
    m, N = D.m, D.N
    X = np.ascontiguousarray(D.matrix.T, dtype=np.int64)
    lev = np.asarray(D.levels, dtype=np.int64)
    first = np.arange(m)
    first = first * m - first * (first - 1) // 2       # index of pair (i, i)
    npairs = m * (m + 1) // 2
    per = max(1, PAIR_CELL_BUDGET // max(N, int(lev.max()) ** 2))
    P = np.zeros((m, m), dtype=np.int64)
    F = np.zeros((m, m), dtype=np.int64)
    for p0 in range(0, npairs, per):
        p = np.arange(p0, min(p0 + per, npairs))
        i = np.searchsorted(first, p, side="right") - 1
        j = i + p - first[i]
        cells = lev[i] * lev[j]
        off = np.cumsum(cells) - cells
        codes = X.take(i, axis=0)
        codes *= lev[j, None]
        codes += X.take(j, axis=0)
        codes += off[:, None]
        n = np.bincount(codes.ravel(), minlength=int(off[-1] + cells[-1]))
        P[i, j] = np.add.reduceat(n * n, off)
        n *= np.repeat(cells, cells)
        n -= N
        np.abs(n, out=n)
        F[i, j] = np.add.reduceat(n, off)
    return P, F


def _gram_tile_sums(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Upper block rows of P and F from tiles of the float32 one-hot Gram.

    Each tile of _gram_tiles is multiplied against the one-hot columns from
    the tile on.  Every tile writes its Gram block and one intermediate into
    one float32 workspace sized for the tallest tile; its row block sums
    are one product with the tile's 0/1 row-to-column indicator, and its
    column block sums are float64 reduceat sums into fixed buffers.

    Exact: Gram entries are counts n <= N.  Summed over a block, n^2 gives
    P[i, j] <= N^2 <= 2^24.  Since sum_ab n_ab = N over the s_i s_j cells
    of a table, F = 2 sum_ab max(N - s_i s_j n_ab, 0), and each term lies
    in [0, N]: s_j n <= 2^24 is exact in float32, and rounding its product
    by s_i cannot take a value >= N below N.  A row block sum is then at
    most N^2 <= 2^24 for either term (sum_a n_ab^2 <= (sum_a n_ab)^2, and
    s_i hinge terms of at most N each), a sum of nonnegative integers that
    float32 gets exactly in any order; the column block sums, up to
    s_i s_j N, run in float64.
    """
    B, starts = _one_hot(D)
    m, N = D.m, D.N
    L = B.shape[1]
    bounds = np.append(starts, L)
    tiles = _gram_tiles(bounds, N)
    rows_max = max(bounds[c1] - bounds[c0] for c0, c1 in tiles)
    cols_max = max(c1 - c0 for c0, c1 in tiles)
    work = np.empty((2, rows_max * L), dtype=np.float32)
    indicator = np.empty(cols_max * rows_max, dtype=np.float32)
    row_sums = np.empty(cols_max * L, dtype=np.float32)
    block_sums = np.empty(cols_max * m, dtype=np.float64)
    weight = np.repeat(np.asarray(D.levels, dtype=np.float32), D.levels)
    P = np.zeros((m, m), dtype=np.int64)
    F = np.zeros((m, m), dtype=np.int64)
    for c0, c1 in tiles:
        r0, r1 = bounds[c0], bounds[c1]
        h, w, t = r1 - r0, L - r0, c1 - c0
        G = work[0, :h * w].reshape(h, w)
        H = work[1, :h * w].reshape(h, w)
        np.matmul(B[:, r0:r1].T, B[:, r0:], out=G)
        E = indicator[:t * h].reshape(t, h)
        E.fill(0)
        E[np.repeat(np.arange(t), D.levels[c0:c1]), np.arange(h)] = 1
        R = row_sums[:t * w].reshape(t, w)
        S = block_sums[:t * (m - c0)].reshape(t, m - c0)
        cols = starts[c0:] - r0
        np.multiply(G, G, out=H)
        np.matmul(E, H, out=R)
        P[c0:c1, c0:] = np.add.reduceat(R, cols, axis=1, dtype=np.float64,
                                        out=S)
        np.multiply(G, weight[r0:], out=H)
        np.multiply(H, weight[r0:r1, None], out=H)
        np.subtract(N, H, out=H)
        np.maximum(H, 0, out=H)
        np.matmul(E, H, out=R)
        np.add.reduceat(R, cols, axis=1, dtype=np.float64, out=S)
        F[c0:c1, c0:] = np.multiply(S, 2, out=S)
    return P, F


def _gram_tiles(bounds: np.ndarray, N: int) -> list[tuple[int, int]]:
    """Tiles (c0, c1) of the Gram route, in column order.

    bounds[c] is the first one-hot row of design column c, and bounds[-1]
    is L.  A tile is a run of whole columns of at most
    GRAM_TILE_CELLS * N / L one-hot rows, or a single column that alone
    is taller, so its Gram block has about GRAM_TILE_CELLS * N cells:
    few enough to stay in cache at small N, enough for full-speed matrix
    products at large N.
    """
    height = max(1, GRAM_TILE_CELLS * N // int(bounds[-1]))
    tiles, c0 = [], 0
    while c0 < len(bounds) - 1:
        c1 = int(np.searchsorted(bounds, bounds[c0] + height, side="right"))
        tiles.append((c0, max(c0 + 1, c1 - 1)))
        c0 = tiles[-1][1]
    return tiles


def _frozen(A: np.ndarray) -> np.ndarray:
    A.setflags(write=False)
    return A


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    M = np.triu(M)
    return M + np.triu(M, 1).T


def cell_table(D: Design, i: int, j: int) -> np.ndarray:
    """s_i x s_j table counting how often each symbol pair appears."""
    si, sj = D.levels[i], D.levels[j]
    code = D.matrix[:, i].astype(np.int64) * sj + D.matrix[:, j]
    return np.bincount(code, minlength=si * sj).reshape(si, sj)


def pair_a2_from_sumsq(sumsq: int, N: int, si: int, sj: int) -> Fraction:
    """Exact projected A2 of a balanced pair from its cell sum of squares."""
    return Fraction(si * sj * int(sumsq) - N * N, N * N)


def classify_columns(x: np.ndarray, y: np.ndarray, si: int, sj: int) -> PairClass:
    """Classify two columns by the cell-count pattern of their pair table."""
    N = len(x)
    tab = np.bincount(np.asarray(x, dtype=np.int64) * sj + np.asarray(y),
                      minlength=si * sj)
    a2 = pair_a2_from_sumsq(int((tab.astype(np.int64)**2).sum()), N, si, sj)
    if a2 == 0:
        return PairClass(ORTHOGONAL, a2)
    if si != sj:
        return PairClass(PARTIAL, a2)
    s = si
    nz = np.sort(tab[tab > 0])
    if len(nz) == s and (nz == N // s).all():
        return PairClass(FULLY_ALIASED, a2)
    if N % (s * s) == 0:
        c = N // (s * s)
        if s % 2:
            semi = [c] * s + [2 * c] * (s * (s - 1) // 2)
        else:
            semi = [2 * c] * (s * s // 2)
        if len(nz) == len(semi) and (nz == np.array(semi)).all():
            return PairClass(SEMI_ORTHOGONAL, a2)
    return PairClass(PARTIAL, a2)


def classify_pair(D: Design, i: int, j: int) -> PairClass:
    return classify_columns(D.matrix[:, i], D.matrix[:, j],
                            D.levels[i], D.levels[j])


def fully_aliased_pairs(D: Design) -> list[tuple[int, int]]:
    """All unordered pairs (i, j), i < j in row-major order, of columns with
    equal levels that are identical up to a level permutation."""
    return sorted(pair for copies in _relabelled_copies(D)
                  for pair in itertools.combinations(copies, 2))


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
    if not D.m:
        yield b"\n" * D.N
        return
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


def design_to_text(D: Design) -> str:
    return b"".join(_text_blocks(D)).decode("ascii")


def design_from_text(text: str, allow_unbalanced=False) -> Design:
    return _design_from_stream(io.StringIO(text), allow_unbalanced)


def _design_from_stream(fh, allow_unbalanced: bool) -> Design:
    """Read the three header lines with readline, then parse the body lines
    with one np.loadtxt; the text is never held as one string.  The body is
    read as int32, wide enough that a symbol out of range, such as -1 or
    70000, reaches the Design's range check, which sees it before the
    matrix is narrowed; a token that int32 cannot hold is malformed.

    loadtxt gets the body as a list of lines, not the stream: parsing the
    stream line by line left a long-lived process faulting in fresh pages
    for its later large arrays (about 5x the minor faults and 40% more time
    for a 3840 x 272 thm8 build run after a 4096 x 545 read).
    """
    if _header_line(fh) != FORMAT_HEADER:
        raise ValueError(f"missing '{FORMAT_HEADER}' header line")
    try:
        N, m = map(int, _header_line(fh).split())
        levels = tuple(map(int, _header_line(fh).split()))
        # numpy < 2 only warns when it parses '1.0' as an integer, and an
        # empty body only warns too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(fh.readlines(), dtype=np.int32, ndmin=2,
                                comments=None)
    except (ValueError, Warning) as exc:
        raise ValueError(f"malformed design file: {exc}") from exc
    if len(levels) != m:
        raise ValueError(f"expected {m} level entries, found {len(levels)}")
    if matrix.shape != (N, m):
        raise ValueError(f"expected {N} rows of {m} symbols")
    return Design(matrix, levels, require_balanced=not allow_unbalanced)


def _header_line(fh) -> str:
    """The next nonblank line, stripped; '' at the end of the stream."""
    for line in iter(fh.readline, ""):
        if line.strip():
            return line.strip()
    return ""


def write_design(D: Design, path) -> None:
    with open(path, "wb") as fh:
        fh.writelines(_text_blocks(D))


def read_design(path, allow_unbalanced=False) -> Design:
    with open(path, "r", encoding="ascii") as fh:
        return _design_from_stream(fh, allow_unbalanced)
