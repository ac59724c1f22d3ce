"""Independent references and brute-force verifiers.

Everything here recomputes from first principles, sharing no code path with
the kernels of design_core or with criteria; of the other modules only the
command line imports it, to run the search.  The tests compare each
reference with the code it checks: the row-by-row pair tables (pair_table,
with pair_a2_from_table and pair_dependency_stats reading A2, chi2, f and
d2 off them by definition, and classify_pair the pair's dependency class)
with design_sums, whose pairs are those of D's columns in ascending level
order (a stable sort); fully_aliased_pairs, read off
each pair's cell table, with remove_fully_aliased; the Z_s character
route exp(2 pi i u x / s), u != 0 (char_a2_matrix, floating) with the
report's histogram; the dense row-compared coincidences with
design_sums' joint histogram; is_oa with strength; the exact
integer-contrast gwlp_bruteforce with the report's wordlength pattern;
a2_closed_form, the equal-level closed form in the coincidence moment K2,
with the report's overall A2; the minimum-A2 search with the lower bounds;
the point-by-point eval_label with the label evaluation of poly_labels;
qh_substitution, the change of basis of Q_h as linear forms, with the
positional rewrite of qh_star; l_set and forms_dependent, every nonzero
linear form and the dependency test, with the label lemmas; and the
schoolbook poly_mul with the field tables.

The search fixes the first column to the canonical sorted pattern (any
design can be row-permuted into that form) and enumerates the remaining
columns in nondecreasing rank order, which removes column-permutation
symmetry.

The search works in integers scaled by N^2, where a pair of s-level columns
contributes s^2 * sum(n_ab^2) - N^2.  For balanced columns c and d,
sum(n_ab^2) counts the ordered row pairs on which both columns agree: the N
pairs r = r' plus twice the pairs r < r' where both agree, so it equals
N + 2 * A_c . A_d exactly, where A_c is the 0/1 vector of row pairs r < r'
on which column c agrees.  A node with k chosen columns therefore scores all
its children at once as k * (s^2 N - N^2) + 2 s^2 * (S @ A), S being the sum
of the chosen columns' agreement vectors and A the candidates' vectors as
columns: one BLAS float32 vector-matrix product, no pair table.  It is
exact: an entry of S counts chosen columns, so it is at most
MAX_COLUMNS - 1 = 4095, and a product sums at most N(N - 1)/2 <= 231 such
terms (N <= 22 for every shape within MAX_CANDIDATES), so every partial sum
is an integer below 2^24, which float32 adds without rounding in any order.
A stable sort of the int64 scores visits the children by (score, rank), and
the pruning bound is compared as an integer floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bounds import lb_theorem1
from .design_core import MAX_COLUMNS, Design
from .gf import Field
from .poly_labels import Label, LinearForm, scale_form, unit_form

DEFAULT_BUDGET = 10**8
MAX_CANDIDATES = 2_000_000

ORTHOGONAL = "orthogonal"
FULLY_ALIASED = "fully_aliased"
SEMI_ORTHOGONAL = "semi_orthogonal"
PARTIAL = "partial"


def pair_table(D: Design, i: int, j: int) -> list[list[int]]:
    """Cell counts of a column pair by explicit row iteration."""
    si, sj = D.levels[i], D.levels[j]
    tab = [[0] * sj for _ in range(si)]
    for a, b in zip(D.matrix[:, i].tolist(), D.matrix[:, j].tolist()):
        tab[a][b] += 1
    return tab


def pair_a2_from_table(tab, N: int) -> Fraction:
    """Projected A2 (s_i s_j sum n_ab^2 - N^2) / N^2 of a pair table."""
    si, sj = len(tab), len(tab[0])
    ssq = sum(v * v for row in tab for v in row)
    return Fraction(si * sj * ssq - N * N, N * N)


def pair_dependency_stats(D: Design, i: int,
                          j: int) -> tuple[Fraction, Fraction, Fraction]:
    """(chi2, f, d2) of one pair from its table, exact, by the definitions

        chi2 = sum (n_ab - e)^2 / e,  f = sum |n_ab - e|,  d2 = sum (n_ab - e)^2

    with e = N / (s_i s_j)."""
    cells = [v for row in pair_table(D, i, j) for v in row]
    e = Fraction(D.N, len(cells))
    d2 = sum(((v - e) ** 2 for v in cells), Fraction(0))
    f = sum((abs(v - e) for v in cells), Fraction(0))
    return d2 / e, f, d2


@dataclass(frozen=True)
class PairClass:
    """Dependency class of a column pair, with its exact projected A2 value."""

    kind: str
    a2: Fraction


def classify_pair(D: Design, i: int, j: int) -> PairClass:
    """Classify columns i and j by the nonzero cell counts of their pair
    table: fully aliased when s cells hold N / s runs each, semi-orthogonal
    when (N = c s^2) s cells hold c and s(s - 1)/2 hold 2c for odd s, or
    s^2 / 2 cells hold 2c for even s."""
    tab = pair_table(D, i, j)
    a2 = pair_a2_from_table(tab, D.N)
    N, s = D.N, D.levels[i]
    if a2 == 0:
        return PairClass(ORTHOGONAL, a2)
    if s != D.levels[j]:
        return PairClass(PARTIAL, a2)
    nz = sorted(v for row in tab for v in row if v)
    if nz == [N // s] * s:
        return PairClass(FULLY_ALIASED, a2)
    c = N // (s * s)
    semi = ([c] * s + [2 * c] * (s * (s - 1) // 2) if s % 2
            else [2 * c] * (s * s // 2))
    if N % (s * s) == 0 and nz == semi:
        return PairClass(SEMI_ORTHOGONAL, a2)
    return PairClass(PARTIAL, a2)


def fully_aliased_pairs(D: Design) -> list[tuple[int, int]]:
    """All pairs (i, j), i < j in row-major order, of columns with equal
    levels that are relabellings of each other: every nonzero row and every
    nonzero column of their cell table, one bincount, holds exactly one
    nonzero cell, so the table has as many nonzero cells as each column
    has symbols in use."""
    X = D.matrix.T.astype(np.int64)
    used = [np.count_nonzero(np.bincount(x)) for x in X]
    pairs = []
    for i in range(D.m):
        code = X[i] * D.levels[i]
        for j in range(i + 1, D.m):
            if ((D.levels[j], used[j]) == (D.levels[i], used[i])
                    and np.count_nonzero(np.bincount(code + X[j])) == used[i]):
                pairs.append((i, j))
    return pairs


def _unit_char_rows(s: int) -> np.ndarray:
    """(s-1) x s table of chi_u(x) = exp(2 pi i (u x mod s) / s), u != 0."""
    chi = np.exp(2j * np.pi * np.arange(s) / s)
    return chi[np.outer(np.arange(1, s), np.arange(s)) % s]


def char_a2_matrix(D: Design) -> np.ndarray:
    """m x m float matrix of character-route projected A2 values (all pairs)."""
    rows = {s: _unit_char_rows(s) for s in set(D.levels)}
    C = np.concatenate([rows[s][:, D.matrix[:, k]].T
                        for k, s in enumerate(D.levels)], axis=1)
    starts = np.cumsum([0] + [s - 1 for s in D.levels[:-1]])
    sq = np.abs(C.T @ C) ** 2
    red = np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)
    np.fill_diagonal(red, 0.0)
    return red / (D.N * D.N)


def coincidences(D: Design, weights=None) -> np.ndarray:
    """N x N matrix of row coincidence counts (zero diagonal), each row
    compared with every row.  With weights (one per column, e.g. the level
    counts), an agreement in column k counts weights[k] instead of 1."""
    X = D.matrix.astype(np.int64)
    w = np.asarray(np.ones(D.m) if weights is None else weights, dtype=np.int64)
    delta = np.array([(X == row) @ w for row in X])
    np.fill_diagonal(delta, 0)
    return delta


def is_oa(D: Design, t: int) -> bool:
    """True when every t-column projection is equireplicated."""
    if t < 1 or t > D.m:
        return False
    N = D.N
    for combo in itertools.combinations(range(D.m), t):
        size = math.prod(D.levels[i] for i in combo)
        if N % size:
            return False
        code = np.zeros(N, dtype=np.int64)
        for i in combo:
            code = code * D.levels[i] + D.matrix[:, i]
        counts = np.bincount(code, minlength=size)
        if not (counts == N // size).all():
            return False
    return True


@dataclass
class SearchResult:
    best_a2: Fraction | None
    design: Design | None
    exhaustive: bool      # the whole symmetry-reduced tree was traversed
    certified: bool       # best equals the coincidence-count lower bound
    evaluations: int
    budget: int


def _candidate_count(N: int, s: int) -> int:
    """N! / ((N/s)!)^s, the number of balanced s-level columns of length N;
    raises ValueError above MAX_CANDIDATES."""
    count = math.factorial(N) // math.factorial(N // s) ** s
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"{count} balanced columns for N={N}, s={s}: too many to enumerate")
    return count


def _balanced_columns(N: int, s: int) -> np.ndarray:
    """All balanced s-level columns of length N, in lexicographic order (uint8).

    Grows every prefix by each symbol it still has room for, one position at
    a time; np.nonzero walks (prefix, symbol) in row-major order, so the rows
    stay lexicographic without enumerating the s^N tuples.
    """
    _candidate_count(N, s)
    per = N // s
    cols = np.zeros((1, 0), dtype=np.uint8)
    room = np.full((1, s), per)
    for _ in range(N):
        prefix, symbol = np.nonzero(room)
        cols = np.column_stack([cols[prefix], symbol.astype(np.uint8)])
        room = room[prefix]
        room[np.arange(len(prefix)), symbol] -= 1
    return cols


def _agreement_table(rows: np.ndarray) -> np.ndarray:
    """N(N-1)/2 x C float32 table of the N x C candidates `rows` (column c
    is candidate c): row p is the p-th row pair (a, b), a < b in row-major
    order, and holds 1 for each candidate that agrees on it.

    Written in place, one comparison per row a into its contiguous block of
    pairs.
    """
    N, C = rows.shape
    agree = np.empty((N * (N - 1) // 2, C), dtype=np.float32)
    p = 0
    for r in range(N - 1):
        np.equal(rows[r + 1:], rows[r], out=agree[p:p + N - 1 - r],
                 casting="unsafe")
        p += N - 1 - r
    return agree


def exhaustive_min_a2(N: int, s: int, m: int, budget: int = DEFAULT_BUDGET,
                      stop_at_bound: bool = True) -> SearchResult:
    """Search the minimum overall A2 over balanced N-run s-level m-column designs.

    Columns may repeat (fully aliased designs are admissible).  The search
    stops early once the theoretical lower bound is attained (the minimum is
    then known exactly and `certified` is set) unless stop_at_bound is false,
    in which case the full reduced tree is traversed.  Scoring the children of
    a node costs one evaluation per child; exceeding the budget returns the
    best design found so far with exhaustive=False.
    """
    if s < 2:
        raise ValueError(f"level count s must be at least 2, got {s}")
    if N < s:
        raise ValueError(f"run count N={N} must be at least the level count s={s}")
    if N % s:
        raise ValueError("run count must be divisible by the level count")
    if not 1 <= m <= MAX_COLUMNS:
        raise ValueError(f"column count m={m} must lie in 1..{MAX_COLUMNS}")
    C, NN = _candidate_count(N, s), N * N
    bound = max(lb_theorem1(N, m, s), Fraction(0))
    if m == 1:
        # no pair to score: the first candidate, 0..0 1..1 ..., is a best
        # design, found with no evaluation and no table
        first = np.repeat(np.arange(s, dtype=np.uint8), N // s)
        return SearchResult(
            best_a2=Fraction(0), design=Design(first[:, None], (s,)),
            exhaustive=True, certified=bound == 0, evaluations=0,
            budget=budget)
    if C > budget:
        # scoring the root's C children alone exceeds the budget
        return SearchResult(best_a2=None, design=None, exhaustive=False,
                            certified=False, evaluations=budget + 1,
                            budget=budget)
    # one row of the design per row, one candidate per column
    rows = np.ascontiguousarray(_balanced_columns(N, s).T)
    agree = _agreement_table(rows)
    scaled = bound * NN     # an integer total can attain it only if it is integral
    target = scaled.numerator if scaled.denominator == 1 else None
    per_pair = max(lb_theorem1(N, 2, s), Fraction(0)) * NN
    # slack[k]: the least that the pairs still open below a child of a node
    # with k chosen columns add; floored, which is exact against integer totals
    slack = [math.floor((math.comb(r, 2) + r * (m - r)) * per_pair)
             for r in range(m - 1, -1, -1)]
    evals, best, best_cols = 0, None, (0,)
    exceeded = stopped = False

    path = [0]      # the chosen columns of the node on top of the stack

    def expand(S: np.ndarray, total: int) -> list | None:
        """Score every child of the node `path`: [S, scores, lo, visit order,
        next position], or None when the budget cannot pay for them."""
        nonlocal evals, exceeded
        lo = path[-1] if len(path) > 1 else 0  # cols 2.. are nondecreasing
        if evals + C - lo > budget:
            evals, exceeded = budget + 1, True
            return None
        evals += C - lo
        scores = (total + len(path) * (s * s * N - NN)
                  + 2 * s * s * (S @ agree[:, lo:]).astype(np.int64))
        return [S, scores, lo, np.argsort(scores, kind="stable"), 0]

    # depth first over an explicit stack with one node per chosen column, so
    # the depth is not bounded by the interpreter's recursion limit
    stack = [expand(agree[:, 0].copy(), 0)]
    while stack and not (stopped or exceeded):
        node = stack[-1]
        S, scores, lo, order, pos = node
        k = len(path)
        # past the last child, or (as later children score no lower and best
        # only falls) past the bound: the node is done
        if pos == len(order) or (best is not None
                                 and int(scores[order[pos]]) + slack[k] >= best):
            stack.pop()
            path.pop()
            continue
        node[4] += 1
        sub, ci = int(scores[order[pos]]), lo + int(order[pos])
        if k + 1 == m:
            best, best_cols = sub, (*path, ci)
            stopped = stop_at_bound and sub == target
        else:
            path.append(ci)
            stack.append(expand(S + agree[:, ci], sub))

    best_a2 = None if best is None else Fraction(best, NN)
    design = None if best is None else Design(rows[:, list(best_cols)], (s,) * m)
    return SearchResult(
        best_a2=best_a2, design=design,
        exhaustive=not exceeded and not stopped,
        certified=best_a2 == bound,
        evaluations=evals, budget=budget)


def periodicity_spot_check(N: int, s: int, t: int, m_values,
                           budget: int = DEFAULT_BUDGET) -> list[dict]:
    """Report whether min-A2 values satisfy a2(m + t) = a2(m) + m(s - 1).

    Purely observational: each row records the two searched values, whether
    they are trustworthy (exhaustive or bound-certified), and whether the
    shift identity holds.  Nothing is asserted.
    """
    rows = []
    for m in m_values:
        r1 = exhaustive_min_a2(N, s, m, budget)
        r2 = exhaustive_min_a2(N, s, m + t, budget)
        known = (r1.exhaustive or r1.certified) and (r2.exhaustive or r2.certified)
        holds = None
        if known and r1.best_a2 is not None and r2.best_a2 is not None:
            holds = r2.best_a2 == r1.best_a2 + m * (s - 1)
        rows.append({
            "m": m, "t": t,
            "a2_m": r1.best_a2, "a2_m_plus_t": r2.best_a2,
            "expected_shift": Fraction(m * (s - 1)),
            "values_known": known, "holds": holds,
        })
    return rows


# -- wordlength and overall A2 cross-checks ---------------------------------------

def _helmert(s: int) -> np.ndarray:
    """s x (s-1) integer Helmert contrasts: column u - 1 is 1 on the symbols
    below u, -u on u and 0 above, with squared norm u (u + 1)."""
    x, u = np.arange(s)[:, None], np.arange(1, s)
    return np.where(x < u, 1, np.where(x == u, -u, 0)).astype(np.int64)


def gwlp_bruteforce(D: Design, j: int) -> Fraction:
    """A_j, exactly, via explicit contrasts (small designs only).

    A_j = N^-2 sum over the j-column subsets and their contrast picks u_k of
    prod_k s_k / (u_k (u_k + 1)) (sum_rows prod_k h_u_k(x_rk))^2, with h_u the
    integer Helmert contrasts.  Each subset's row sums are one int64 einsum
    (at most N 31^8 < 2^63 in size); the squares and the weights, over the
    one denominator L^j with L the lcm of every u (u + 1), are Python
    integers, since the squares can pass 2^63."""
    if D.N > 32 or D.m > 8:
        raise ValueError("contrast-based route is limited to N <= 32, m <= 8")
    if j < 1 or j > D.m:
        raise ValueError("j must lie in 1..m")
    L = math.lcm(*(u * (u + 1) for u in range(1, max(D.levels))))
    H = [_helmert(s)[D.matrix[:, k]] for k, s in enumerate(D.levels)]
    W = [np.array([s * L // (u * (u + 1)) for u in range(1, s)], dtype=object)
         for s in D.levels]
    axes = "abcdefgh"[:j]
    spec = ",".join("z" + a for a in axes) + "->" + axes
    total = 0
    for combo in itertools.combinations(range(D.m), j):
        sq = np.einsum(spec, *(H[k] for k in combo)).astype(object) ** 2
        for k in reversed(combo):   # contract the last axis with its weights
            sq = sq @ W[k]
        total += sq
    return Fraction(int(total), L**j * D.N * D.N)


def a2_closed_form(N: int, m: int, s: int, counts: dict[int, int]) -> Fraction:
    """Overall A2 of an equal-level design by the closed form in the second
    power moment K2 of its coincidence counts (count -> row pairs, over the
    C(N, 2) row pairs),

        A2 = [(N-1) s^2 K2 + m^2 s^2 - N m (m + s - 1)] / (2N),

    with (N - 1) K2 = 2 sum_pairs c^2 / N."""
    sq = sum(c * v * v for v, c in counts.items())
    return Fraction(2 * s * s * sq + N * m * m * s * s - N * N * m * (m + s - 1),
                    2 * N * N)


# -- label and field references ------------------------------------------------

def eval_label(field: Field, label: Label, point) -> int:
    """Evaluate a label at a single point of F_s^n."""
    if isinstance(label, LinearForm):
        acc = 0
        for c, x in zip(label.coeffs, point):
            if c:
                acc = field.add(acc, field.mul(c, int(x)))
        return acc
    v = eval_label(field, label.ell, point)
    out = field.add(field.mul(v, v), field.mul(label.a, v))
    return field.add(out, eval_label(field, label.g, point))


def qh_substitution(h: LinearForm, n: int) -> list[LinearForm]:
    """Change of basis attached to h in H, as linear forms in X: Y1 = h,
    Y2..Y(k+1) = X1..Xk and the coordinates after X(k+1) unchanged, k + 1
    the position of h's last nonzero coefficient (which is 1)."""
    k = h.last_nonzero()
    return ([h] + [unit_form(n, i) for i in range(k)]
            + [unit_form(n, i) for i in range(k + 1, n)])


def l_set(field: Field, n: int) -> list[LinearForm]:
    """All nonzero linear forms in X1..Xn (every nonzero scalar multiple)."""
    s = field.order
    return [LinearForm(tuple(reversed(rev)))
            for rev in itertools.product(range(s), repeat=n)
            if any(rev)]


def forms_dependent(field: Field, f1: LinearForm, f2: LinearForm) -> bool:
    """True when f1 = c*f2 for some nonzero c (both nonzero)."""
    if f1.is_zero or f2.is_zero:
        return False
    i = f2.last_nonzero()
    if f1.coeffs[i] == 0:
        return False
    c = field.div(f1.coeffs[i], f2.coeffs[i])
    return scale_form(field, c, f2) == f1


def poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    """Product of two polynomials over GF(p), coefficients lowest degree
    first, with trailing zero coefficients dropped."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out
