"""Design matrices and structural operations.

A Design is an immutable N x m symbol matrix with per-column level counts and
optional label provenance.  Everything downstream (criteria, bounds, the
catalog) works on this type.  Because the matrix is read-only, the facts
every criterion reads are computed from it at most once and kept on the
design: balance when it is built, the Gram sums P and F (pair_gram_sums) and
the row coincidence histogram (coincidence_counts) on first request.  The
module also holds the structural pair machinery: two-column cell tables, the
tiled one-hot Gram kernel whose integer block sums drive every exact
pairwise aliasing value, pair classification, and the plain text
serialisation format.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import MAX_ORDER, Field, enumerate_points
from .poly_labels import Label, eval_label_column

MAX_RUNS = MAX_ORDER
MAX_COLUMNS = 4096
# Design columns per tile of the one-hot Gram matrix in pair_gram_sums.
GRAM_TILE = 64

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

    The matrix is read-only: a C-contiguous int64 input is taken without a
    copy and marked read-only, so no view of it may be written afterwards.
    is_balanced is settled by the constructor; the Gram sums and the
    coincidence histogram are kept here by pair_gram_sums and
    coincidence_counts on their first call, as read-only arrays and a
    private dict, and live as long as the design.
    """

    __slots__ = ("matrix", "levels", "labels", "is_balanced",
                 "_gram", "_coincidence")

    def __init__(self, matrix, levels, labels=None, require_balanced=True):
        m = np.ascontiguousarray(np.asarray(matrix, dtype=np.int64))
        if m.ndim != 2:
            raise ValueError("design matrix must be two-dimensional")
        N, cols = m.shape
        levels = tuple(int(s) for s in levels)
        if len(levels) != cols:
            raise ValueError("one level count per column is required")
        if N > MAX_RUNS or cols > MAX_COLUMNS:
            raise ValueError(
                f"design size {N}x{cols} exceeds the supported "
                f"{MAX_RUNS}x{MAX_COLUMNS}")
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
        bad = np.flatnonzero((m.min(axis=0) < 0) | (m.max(axis=0) >= lev))
        if bad.size:
            i = bad[0]
            raise ValueError(f"column {i} has symbols outside 0..{levels[i] - 1}")
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
        self._gram = None
        self._coincidence = None

    @property
    def N(self) -> int:
        return self.matrix.shape[0]

    @property
    def m(self) -> int:
        return self.matrix.shape[1]

    def __repr__(self):
        if len(set(self.levels)) == 1:
            lv = f"{self.levels[0]}^{self.m}"
        else:
            lv = " ".join(map(str, self.levels))
        return f"Design({self.N} runs, {lv})"


def _first_unbalanced(matrix: np.ndarray, lev: np.ndarray) -> int | None:
    """First column whose symbols are not equally frequent, or None.

    Symbols must already lie in range.  One bincount per tile of GRAM_TILE
    columns, each column shifted into its own bins, so no temporary exceeds
    N x GRAM_TILE.
    """
    N = matrix.shape[0]
    for c0 in range(0, len(lev), GRAM_TILE):
        tl = lev[c0:c0 + GRAM_TILE]
        starts = np.cumsum(tl) - tl
        counts = np.bincount((matrix[:, c0:c0 + GRAM_TILE] + starts).ravel(),
                             minlength=int(tl.sum()))
        off = np.logical_or.reduceat(counts != np.repeat(N // tl, tl), starts)
        if off.any():
            return c0 + int(np.argmax(off))
    return None


# -- construction ---------------------------------------------------------------

def realize(field: Field, n: int, labels, require_balanced=True) -> Design:
    """Evaluate the labels at every point of F_s^n, one column per label."""
    labels = list(labels)
    if not labels:
        raise ValueError("need at least one label")
    pts = enumerate_points(field, n, max_points=MAX_RUNS)
    cols = [eval_label_column(field, lab, pts) for lab in labels]
    matrix = np.stack(cols, axis=1)
    return Design(matrix, (field.order,) * len(labels), labels=labels,
                  require_balanced=require_balanced)


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
    return Design(matrix, levels, labels=labels)


def row_juxtapose(*designs: Design, require_balanced=True) -> Design:
    """Stack designs on top of each other; level profiles must agree."""
    if not designs:
        raise ValueError("nothing to juxtapose")
    levels = designs[0].levels
    if any(d.levels != levels for d in designs):
        raise ValueError("level profiles differ across the juxtaposed designs")
    matrix = np.concatenate([d.matrix for d in designs], axis=0)
    return Design(matrix, levels, labels=designs[0].labels,
                  require_balanced=require_balanced)


def select_columns(D: Design, indices) -> Design:
    indices = list(indices)
    matrix = D.matrix[:, indices]
    levels = tuple(D.levels[i] for i in indices)
    labels = tuple(D.labels[i] for i in indices) if D.labels else None
    return Design(matrix, levels, labels=labels)


def check_fraction_runs(runs: int) -> None:
    """Reject a fraction that keeps more than MAX_RUNS runs."""
    if runs > MAX_RUNS:
        raise ValueError(f"the fraction keeps {runs} runs, more than "
                         f"the supported {MAX_RUNS}")


def branch_fraction(field: Field, n: int, labels, branch_label: Label,
                    g_levels) -> Design:
    """Keep the points where the branch column's value lies in g_levels.

    The branch column itself is dropped; rows are grouped by branch value in
    ascending order, original point order within each group.  Every remaining
    column must come out balanced.
    """
    labels = list(labels)
    g = sorted(set(int(v) for v in g_levels))
    s = field.order
    if not g:
        raise ValueError("the kept level set is empty")
    if len(g) >= s or any(v < 0 or v >= s for v in g):
        raise ValueError(f"kept levels must be a proper subset of 0..{s - 1}")
    # a nonempty level of a label column holds a multiple of s^(n-1) points,
    # so no fraction of more than s * MAX_RUNS points fits in MAX_RUNS runs
    pts = enumerate_points(field, n, max_points=s * MAX_RUNS)
    branch_col = eval_label_column(field, branch_label, pts)
    rows = np.concatenate([np.nonzero(branch_col == v)[0] for v in g])
    check_fraction_runs(len(rows))
    # the branching column is matched (and removed) by value, so any label
    # that evaluates to the same column counts as the branch
    keep, cols = [], []
    for lab in labels:
        col = eval_label_column(field, lab, pts)
        if not np.array_equal(col, branch_col):
            keep.append(lab)
            cols.append(col[rows])
    if len(keep) == len(labels):
        raise ValueError("branching label is not one of the design labels")
    matrix = np.stack(cols, axis=1)
    try:
        return Design(matrix, (s,) * len(keep), labels=keep)
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
    new_levels = []
    for j in range(table.shape[1]):
        col = table[:, j]
        lv = int(col.max()) + 1
        if col.min() < 0:
            raise ValueError("replacement symbols must be nonnegative")
        if s_old % lv:
            raise ValueError(f"{lv} levels cannot balance over {s_old} rows")
        counts = np.bincount(col, minlength=lv)
        if not (counts == s_old // lv).all():
            raise ValueError(f"replacement table column {j} is unbalanced")
        new_levels.append(lv)
    block = table[D.matrix[:, col_index], :]
    matrix = np.concatenate(
        [D.matrix[:, :col_index], block, D.matrix[:, col_index + 1:]], axis=1)
    levels = D.levels[:col_index] + tuple(new_levels) + D.levels[col_index + 1:]
    labels = None
    if D.labels is not None:
        mid = tuple(f"replaced({col_index}:{j})" for j in range(table.shape[1]))
        labels = D.labels[:col_index] + mid + D.labels[col_index + 1:]
    return Design(matrix, levels, labels=labels)


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


def strength(D: Design) -> int:
    """Largest t with every t-column projection equireplicated."""
    t = 0
    while t < D.m and is_oa(D, t + 1):
        t += 1
    return t


def coincidences(D: Design, weights=None) -> np.ndarray:
    """N x N matrix of row coincidence counts (zero diagonal).

    With weights (one per column, e.g. the level counts), each agreement in
    column k contributes weights[k] instead of 1.
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


def coincidence_counts(D: Design) -> dict[int, int]:
    """Row-pair coincidence count -> number of row pairs with that count.

    Keys ascend.  Computed on the first call and kept on D (the N x N matrix
    is not); each call returns a copy.
    """
    if D._coincidence is None:
        counts = np.bincount(coincidences(D).ravel())
        counts[0] -= D.N            # the zero diagonal
        counts //= 2                # each row pair appears twice
        D._coincidence = {v: c for v, c in enumerate(counts.tolist()) if c}
    return dict(D._coincidence)


def _one_hot(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Row indicator matrix (N, sum levels) and the per-column start offsets."""
    starts = np.concatenate([[0], np.cumsum(D.levels)])[:-1]
    total = int(sum(D.levels))
    B = np.zeros((D.N, total), dtype=np.float64)
    idx = D.matrix + starts[None, :]
    B[np.arange(D.N)[:, None], idx] = 1.0
    return B, starts


def pair_gram_sums(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Integer m x m block sums of the one-hot Gram matrix G = B^T B.

    The (i, j) block of G is the cell table n_ab of columns i and j, so

        P[i, j] = sum_ab n_ab^2    and    F[i, j] = sum_ab |s_i s_j n_ab - N|

    give every pairwise statistic exactly.  Diagonal entries refer to a
    column against itself.  G is computed in tiles of at most GRAM_TILE
    design columns against the columns from the tile onwards, and the lower
    triangle is mirrored, so no L x L temporary exists.  Exact: the Gram
    entries are integers <= N computed in float64.  Computed on the first
    call and kept on D; P and F are read-only.
    """
    if D._gram is not None:
        return D._gram
    B, starts = _one_hot(D)
    m, N = D.m, D.N
    bounds = np.append(starts, B.shape[1])
    owner = np.repeat(np.asarray(D.levels, dtype=np.int64), D.levels)
    P = np.zeros((m, m), dtype=np.int64)
    F = np.zeros((m, m), dtype=np.int64)
    for c0 in range(0, m, GRAM_TILE):
        c1 = min(c0 + GRAM_TILE, m)
        r0, r1 = bounds[c0], bounds[c1]
        G = np.rint(B[:, r0:r1].T @ B[:, r0:]).astype(np.int64)
        rows, cols = starts[c0:c1] - r0, starts[c0:] - r0
        P[c0:c1, c0:] = _block_sums(G * G, rows, cols)
        G *= owner[r0:r1, None] * owner[None, r0:]
        G -= N
        np.abs(G, out=G)
        F[c0:c1, c0:] = _block_sums(G, rows, cols)
    P, F = _mirror_upper(P), _mirror_upper(F)
    P.setflags(write=False)
    F.setflags(write=False)
    D._gram = (P, F)
    return D._gram


def _block_sums(A: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    return np.add.reduceat(np.add.reduceat(A, rows, axis=0), cols, axis=1)


def _mirror_upper(M: np.ndarray) -> np.ndarray:
    M = np.triu(M)
    return M + np.triu(M, 1).T


def cell_table(D: Design, i: int, j: int) -> np.ndarray:
    """s_i x s_j table counting how often each symbol pair appears."""
    si, sj = D.levels[i], D.levels[j]
    code = D.matrix[:, i] * sj + D.matrix[:, j]
    return np.bincount(code, minlength=si * sj).reshape(si, sj)


def pair_a2_from_sumsq(sumsq: int, N: int, si: int, sj: int) -> Fraction:
    """Exact projected A2 of a balanced pair from its cell sum of squares."""
    return Fraction(si * sj * int(sumsq) - N * N, N * N)


def classify_columns(x: np.ndarray, y: np.ndarray, si: int, sj: int) -> PairClass:
    """Classify two columns by the cell-count pattern of their pair table."""
    N = len(x)
    tab = np.bincount(np.asarray(x) * sj + np.asarray(y), minlength=si * sj)
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
    """All unordered pairs that are identical up to a level permutation.

    Uses the exact criterion projected A2 = s - 1, which for balanced
    equal-level pairs forces the permutation cell pattern, i.e.
    s^2 P[i, j] = s N^2.
    """
    P = pair_gram_sums(D)[0]
    lev = np.asarray(D.levels, dtype=np.int64)
    i, j = np.triu_indices(D.m, 1)
    hit = (lev[i] == lev[j]) & (lev[i] * P[i, j] == D.N * D.N)
    return list(zip(i[hit].tolist(), j[hit].tolist()))


def remove_fully_aliased(D: Design) -> Design:
    """Drop the later column of every fully aliased pair (first index kept)."""
    removed = set()
    for i, j in fully_aliased_pairs(D):
        if i not in removed and j not in removed:
            removed.add(j)
    if not removed:
        return D
    return select_columns(D, [i for i in range(D.m) if i not in removed])


# -- plain text format -------------------------------------------------------------

FORMAT_HEADER = "# ssd v1"


def design_to_text(D: Design) -> str:
    sym = [str(v) for v in range(max(D.levels, default=0))]
    lines = [FORMAT_HEADER, f"{D.N} {D.m}", " ".join(map(str, D.levels))]
    lines += [" ".join([sym[v] for v in row.tolist()]) for row in D.matrix]
    return "\n".join(lines) + "\n"


def design_from_text(text: str, allow_unbalanced=False) -> Design:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != FORMAT_HEADER:
        raise ValueError(f"missing '{FORMAT_HEADER}' header line")
    try:
        N, m = map(int, lines[1].split())
        levels = tuple(map(int, lines[2].split()))
        # numpy < 2 only warns when it parses '1.0' as an integer, and an
        # empty body only warns too
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            matrix = np.loadtxt(lines[3:], dtype=np.int64, ndmin=2,
                                comments=None)
    except (IndexError, ValueError, Warning) as exc:
        raise ValueError(f"malformed design file: {exc}") from exc
    if len(levels) != m:
        raise ValueError(f"expected {m} level entries, found {len(levels)}")
    if matrix.shape != (N, m):
        raise ValueError(f"expected {N} rows of {m} symbols")
    return Design(matrix, levels, require_balanced=not allow_unbalanced)


def write_design(D: Design, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(design_to_text(D))


def read_design(path, allow_unbalanced=False) -> Design:
    with open(path, "r", encoding="ascii") as fh:
        return design_from_text(fh.read(), allow_unbalanced=allow_unbalanced)
