"""Aliasing criteria: power moments, exact overall/projected A2, chi-square,
f and d^2 aggregates, generalized wordlength patterns, and E(s^2).

Exact rational arithmetic is the source of truth everywhere a bound or a
catalog value is compared: projected A2 of a balanced pair (c_i, c_j) is

    A2(c_i, c_j) = chi2(c_i, c_j) / N = (s_i s_j sum_ab n_ab^2 - N^2) / N^2,

an integer ratio, and the overall A2 is both the closed form in the second
power moment K2 (equal levels) and the sum of all projected values.

Every pairwise statistic is an integer numerator over a known denominator.
With P = sum_ab n_ab^2 and F = sum_ab |s_i s_j n_ab - N| from one tiled pass
over the one-hot Gram matrix (design_core.pair_gram_sums), and
X = s_i s_j P - N^2:

    chi2 = X / N,   A2 = X / N^2,   d2 = X / (s_i s_j),   f = F / (s_i s_j).

The numerators are exact integers.  Gram entries are cell counts <= N <= 4096,
so float64 holds them and their sums exactly and rint recovers them.  At the
4096 x 4096 size limit a tile's int64 block sums stay far below 2^63
(P <= N^2, F <= 2 s_i s_j N <= 2^37), and so do the sums of X < N^3 and of F
over fewer than 2^23 pairs.  Sums and maxima of d2 and f are taken per
denominator s_i s_j and the totals accumulate in Python integers (Fractions).

The character route, a floating cross-check and never the authority, uses
the characters chi_u(x) = exp(2 pi i u x / s), u != 0, of the cyclic group
Z_s: A2(x, y) = N^-2 sum_{u1,u2 != 0} |sum_i chi_u1(x_i) chi_u2(y_i)|^2.
They are complete orthonormal contrasts for any level count, and A_j does
not depend on which such contrasts are used (Xu & Wu 2001, Ann. Statist.
29), so no field is needed: field characters would give the same values.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import (Design, cell_table, coincidence_counts,
                          pair_a2_from_sumsq, pair_gram_sums)

GWLP_DEFAULT_JMAX = 3
GWLP_DEFAULT_BUDGET = 2_000_000


def _require_balanced(D: Design) -> None:
    if not D.is_balanced:
        raise ValueError("requires a balanced design")


def power_moment(D: Design, t: int) -> Fraction:
    """t-th power moment of the row coincidence counts, exact."""
    if t < 1:
        raise ValueError("the moment order must be positive")
    counts = coincidence_counts(D)
    return Fraction(sum(c * v**t for v, c in counts.items()),
                    D.N * (D.N - 1) // 2)


def projected_a2(D: Design, i: int, j: int) -> Fraction:
    """Exact projected A2 of a column pair, by cell counting."""
    tab = cell_table(D, i, j).astype(np.int64)
    return pair_a2_from_sumsq(int((tab * tab).sum()), D.N,
                              D.levels[i], D.levels[j])


def _upper(M: np.ndarray) -> np.ndarray:
    """Entries of a square matrix over the pairs i < j, row-major."""
    return M[np.triu_indices(len(M), 1)]


def _pair_numerators(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """X = s_i s_j P - N^2 and the denominators s_i s_j over the pairs i < j."""
    lev = np.asarray(D.levels, dtype=np.int64)
    den = _upper(np.outer(lev, lev))
    return den * _upper(pair_gram_sums(D)[0]) - D.N * D.N, den


def projected_a2_histogram(D: Design) -> Counter:
    """Histogram of projected A2 values over all C(m, 2) pairs (zeros included).

    Keys are in increasing order.
    """
    X, _ = _pair_numerators(D)
    vals, counts = np.unique(X, return_counts=True)
    N2 = D.N * D.N
    return Counter({Fraction(v, N2): c
                    for v, c in zip(vals.tolist(), counts.tolist())})


def a2_overall(D: Design) -> Fraction:
    """Exact overall A2.

    With equal levels this is the closed form
    [(N-1) s^2 K2 + m^2 s^2 - N m (m + s - 1)] / (2N); with mixed levels it is
    the sum of all pairwise projected values.  Both routes agree exactly on
    balanced designs.
    """
    _require_balanced(D)
    if len(set(D.levels)) > 1:
        return a2_overall_from_pairs(D)
    s, m, N = D.levels[0], D.m, D.N
    return ((N - 1) * s * s * power_moment(D, 2) + m * m * s * s
            - N * m * (m + s - 1)) / Fraction(2 * N)


def a2_overall_from_pairs(D: Design) -> Fraction:
    """Overall A2 as the sum of all pairwise projected values."""
    _require_balanced(D)
    X, _ = _pair_numerators(D)
    return Fraction(int(X.sum()), D.N * D.N)


def pair_dependency_stats(D: Design, i: int, j: int) -> tuple[Fraction, Fraction, Fraction]:
    """(chi2, f, d2) of one pair, exact.

    chi2 = sum (n_ab - e)^2 / e and d2 = sum (n_ab - e)^2 with e = N/(s_i s_j);
    f = sum |n_ab - e|.  For equal levels d2 = (N/s^2) chi2.
    """
    tab = cell_table(D, i, j).astype(np.int64)
    N = D.N
    si, sj = D.levels[i], D.levels[j]
    ssq = int((tab * tab).sum())
    chi2 = Fraction(si * sj * ssq - N * N, N)
    e = Fraction(N, si * sj)
    f = sum((abs(Fraction(int(v)) - e) for v in tab.ravel()), Fraction(0))
    d2 = Fraction(si * sj * ssq - N * N, si * sj)
    return chi2, f, d2


def dependency_summary(D: Design) -> dict[str, Fraction]:
    """Averages and maxima of chi2, f and d2 over all C(m, 2) pairs, exact.

    Keys are the CriteriaReport field names.  Reads the integer numerators of
    the Gram kernel (P and F of pair_gram_sums); d2 and f are summed and
    maximised per denominator s_i s_j.
    """
    _require_balanced(D)
    if D.m < 2:
        raise ValueError("need at least two columns")
    X, den = _pair_numerators(D)
    Fu = _upper(pair_gram_sums(D)[1])
    npairs = len(X)
    f_sum = d2_sum = f_max = d2_max = Fraction(0)
    levels = set(D.levels)
    for d in {a * b for a in levels for b in levels}:
        sel = den == d
        if not sel.any():
            continue
        Xd, Fd = X[sel], Fu[sel]
        d2_sum += Fraction(int(Xd.sum()), d)
        f_sum += Fraction(int(Fd.sum()), d)
        d2_max = max(d2_max, Fraction(int(Xd.max()), d))
        f_max = max(f_max, Fraction(int(Fd.max()), d))
    return {
        "ave_chi2": Fraction(int(X.sum()), D.N * npairs),
        "max_chi2": Fraction(int(X.max()), D.N),
        "ave_f": f_sum / npairs, "max_f": f_max,
        "E_d2": d2_sum / npairs, "max_d2": d2_max,
    }


def e_s2(D: Design) -> Fraction:
    """E(s^2) of a two-level design: N^2 A2 / C(m, 2)."""
    if any(s != 2 for s in D.levels):
        raise ValueError("E(s^2) is defined for two-level designs only")
    if D.m < 2:
        raise ValueError("need at least two columns")
    return Fraction(D.N * D.N) * a2_overall(D) / math.comb(D.m, 2)


# -- character route ------------------------------------------------------------

def _unit_char_rows(s: int) -> np.ndarray:
    """(s-1) x s table of chi_u(x) = exp(2 pi i (u x mod s) / s), u != 0."""
    chi = np.exp(2j * np.pi * np.arange(s) / s)
    return chi[np.outer(np.arange(1, s), np.arange(s)) % s]


def projected_a2_char(D: Design, i: int, j: int) -> float:
    """Projected A2 via Z_s characters (floating cross-check)."""
    a = _unit_char_rows(D.levels[i])[:, D.matrix[:, i]]
    b = _unit_char_rows(D.levels[j])[:, D.matrix[:, j]]
    return float((np.abs(a @ b.T) ** 2).sum()) / (D.N * D.N)


def _char_columns(D: Design) -> tuple[np.ndarray, np.ndarray]:
    """Character contrast columns chi_u(x) for every column and u != 0.

    Returns the (N, sum(s_k - 1)) complex matrix and per-column start offsets.
    """
    rows = {s: _unit_char_rows(s) for s in set(D.levels)}
    blocks = [rows[s][:, D.matrix[:, k]].T for k, s in enumerate(D.levels)]
    starts = np.cumsum([0] + [s - 1 for s in D.levels[:-1]])
    return np.concatenate(blocks, axis=1), starts


def _char_a2(C: np.ndarray, starts: np.ndarray, N: int) -> np.ndarray:
    sq = np.abs(C.T @ C) ** 2
    red = np.add.reduceat(np.add.reduceat(sq, starts, axis=0), starts, axis=1)
    np.fill_diagonal(red, 0.0)
    return red / (N * N)


def char_a2_matrix(D: Design) -> np.ndarray:
    """m x m float matrix of character-route projected A2 values (all pairs)."""
    return _char_a2(*_char_columns(D), D.N)


def _gwlp_cost(D: Design, jmax: int) -> int:
    # j = 1, 2 run as whole-matrix products and are effectively free; only the
    # per-subset loops of j >= 3 count against the budget.
    mx = max(s - 1 for s in D.levels)
    return sum(math.comb(D.m, j) * mx**j for j in range(3, jmax + 1))


def gwlp(D: Design, jmax: int = GWLP_DEFAULT_JMAX,
         budget: int = GWLP_DEFAULT_BUDGET) -> list[float]:
    """Generalized wordlength pattern prefix [A_1 .. A_jmax] via characters.

    A_j = N^-2 sum over j-subsets and nonzero character indices of
    |column sum of the row-wise contrast products|^2.  Cost grows like
    C(m, j) (s-1)^j; a budget guards the combinatorial blow-up.
    """
    if jmax < 1 or jmax > D.m:
        raise ValueError("jmax must lie in 1..m")
    if _gwlp_cost(D, jmax) > budget:
        raise ValueError(
            f"wordlength computation up to j={jmax} exceeds the budget of "
            f"{budget} terms (raise the budget to force it)")
    C, starts = _char_columns(D)
    N = D.N
    out = []
    col_slices = [slice(starts[k], starts[k] + D.levels[k] - 1)
                  for k in range(D.m)]
    # j = 1
    out.append(float((np.abs(C.sum(axis=0)) ** 2).sum()) / (N * N))
    if jmax >= 2:
        out.append(float(np.triu(_char_a2(C, starts, N), 1).sum()))
    for j in range(3, jmax + 1):
        acc = 0.0
        for combo in itertools.combinations(range(D.m), j):
            V = C[:, col_slices[combo[0]]]
            for k in combo[1:]:
                V = (V[:, :, None] * C[:, None, col_slices[k]]).reshape(N, -1)
            acc += float((np.abs(V.sum(axis=0)) ** 2).sum())
        out.append(acc / (N * N))
    return out


# -- aggregate report ------------------------------------------------------------

def round_half_away(x: Fraction, digits: int = 2) -> float:
    """Round a rational half away from zero at the given decimal precision."""
    q = Fraction(10) ** digits
    scaled = x * q
    sign = -1 if scaled < 0 else 1
    return float(sign * ((abs(scaled) + Fraction(1, 2)).__floor__()) / q)


@dataclass(frozen=True)
class CriteriaReport:
    N: int
    m: int
    levels: tuple[int, ...]
    A2: Fraction
    histogram: dict          # Fraction -> pair count, zeros included
    ave_chi2: Fraction
    max_chi2: Fraction
    ave_f: Fraction
    max_f: Fraction
    E_d2: Fraction
    max_d2: Fraction
    gwlp: tuple[float, ...]
    E_s2: Fraction | None


def aggregate_stats(D: Design, gwlp_jmax: int | None = None) -> CriteriaReport:
    """Evaluate every pairwise criterion of a design, exactly.

    gwlp_jmax=None picks the largest prefix (up to 3, and at most m)
    affordable within GWLP_DEFAULT_BUDGET; pass an explicit value to force
    deeper terms.
    """
    _require_balanced(D)
    if D.m < 2:
        raise ValueError("need at least two columns")
    hist = projected_a2_histogram(D)
    a2 = sum((v * c for v, c in hist.items()), Fraction(0))
    if len(set(D.levels)) == 1 and a2_overall(D) != a2:
        raise AssertionError("overall A2 disagrees with the pairwise sum")
    if gwlp_jmax is None:
        gwlp_jmax = min(GWLP_DEFAULT_JMAX, D.m)
        while gwlp_jmax > 2 and _gwlp_cost(D, gwlp_jmax) > GWLP_DEFAULT_BUDGET:
            gwlp_jmax -= 1
    pattern = tuple(gwlp(D, gwlp_jmax, max(GWLP_DEFAULT_BUDGET,
                                           _gwlp_cost(D, gwlp_jmax))))
    es2 = e_s2(D) if all(s == 2 for s in D.levels) else None
    return CriteriaReport(
        N=D.N, m=D.m, levels=D.levels,
        A2=a2, histogram=dict(hist),
        **dependency_summary(D),
        gwlp=pattern, E_s2=es2)
