"""Aliasing criteria, read from one exact report: overall A2 and its
projected histogram, chi-square, f and d^2 aggregates, the generalized
wordlength pattern, E(s^2) and the row coincidence counts (aggregate_stats).

Exact rational arithmetic is the source of truth everywhere a bound or a
catalog value is compared: projected A2 of a balanced pair (c_i, c_j) is

    A2(c_i, c_j) = chi2(c_i, c_j) / N = (s_i s_j sum_ab n_ab^2 - N^2) / N^2,

an integer ratio, and the overall A2 is the sum of all projected values.

Every pairwise statistic is an integer numerator over a known denominator.
With P = sum_ab n_ab^2 and F = sum_ab |s_i s_j n_ab - N| from one pass of
the kernel entry (design_core.design_sums: cell counts or one-hot Gram
tiles, over the columns in ascending level order, which no multiset
statistic depends on), and X = s_i s_j P - N^2:

    chi2 = X / N,   A2 = X / N^2,   d2 = X / (s_i s_j),   f = F / (s_i s_j).

The numerators are exact integers.  Cell counts are <= N <= 4096, and P is
at most N^2 <= 2^24, so even the float32 Gram route holds them exactly.
Every level of a balanced design divides N, so s_i s_j divides N^2, and
d2 = P - N^2 / (s_i s_j) and f N^2 = F N^2 / (s_i s_j) are integers too.
At the 4096 x 4096 size limit P, d2 <= N^2, X < N^3 and F, f N^2 <= 2 N^3
= 2^37, so their int64 sums over fewer than 2^23 pairs stay below 2^63, and
each reported value is one Fraction of such a sum or maximum (_summary).

The wordlength pattern is exact too: by the MacWilliams-type identity of
Xu & Wu (2001, Ann. Statist. 29), A_j = N^-2 sum over ordered row pairs
(a = b included) of [z^j] prod_g (1 - z)^{d_g} (1 + (s_g - 1) z)^{m_g - d_g},
with d_g the number of the m_g columns of level group g where the rows
differ.  So one joint coincidence histogram gives every A_j, for any level
profile.  Its A_2 is the overall A2 at every level profile too, so each
report checks the pairwise sum against it.  The independent routes these
values are checked against (per-pair tables, Z_s characters, integer
contrasts, the closed form in the coincidence moment K2) live in ssd.oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import (Design, design_sums, joint_coincidences,
                          level_groups)

GWLP_DEFAULT_JMAX = 3


def _require_evaluable(D: Design) -> None:
    if not D.is_balanced:
        raise ValueError("requires a balanced design")
    if D.m < 2:
        raise ValueError("need at least two columns")


def _pair_numerators(D: Design, groups,
                     P: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = s_i s_j P - N^2 over the pairs i < j of D's columns in ascending
    level order, row-major, as design_sums gives P, with their denominators
    s_i s_j as runs: (dens, starts), one run for each row i of pairs and
    each level group (level_groups order) of the later column, empty runs
    dropped.  With equal levels s that is the one run of s^2.  X is P,
    rewritten in place."""
    if len(groups) == 1:   # one run: per-row run arrays would only cost time
        dens = np.array([groups[0][0] ** 2], dtype=np.int64)
        starts = np.zeros(1, dtype=np.intp)
        P *= dens[0]
    else:
        s, mg = np.array(groups, dtype=np.int64).T
        last = np.cumsum(mg)
        i = np.arange(D.m - 1)[:, None]
        # row i pairs with the columns of each group from max(first, i + 1) on
        lens = np.clip(last - np.maximum(last - mg, i + 1), 0, None).ravel()
        dens = (np.repeat(s, mg)[:-1, None] * s).ravel()
        run = lens > 0
        dens, lens = dens[run], lens[run]
        P *= np.repeat(dens, lens)
        starts = np.cumsum(lens) - lens
    P -= D.N * D.N
    return P, dens, starts


def _histogram(X: np.ndarray, N: int) -> dict:
    """Projected A2 value -> pair count, keys ascending."""
    vals, counts = np.unique(X, return_counts=True)
    return {Fraction(v, N * N): c for v, c in zip(vals.tolist(), counts.tolist())}


def _summary(X: np.ndarray, F: np.ndarray, N: int, dens: np.ndarray,
             starts: np.ndarray) -> dict[str, Fraction]:
    """The chi2, f and d2 aggregates from the pair numerators X and F and
    the runs of their denominators (dens, starts): f = F / d, d2 = X / d.

    Every level of a balanced design divides N, so every d = s_i s_j
    divides N^2: d2 = X / d = P - N^2 / d and f N^2 = F w, with w = N^2 / d,
    are integers.  As f N^2 <= 2 N^3 = 2^37 and d2 <= N^2, every int64 sum
    over fewer than 2^23 pairs stays below 2^63; each reported value is
    one Fraction of a sum or maximum of the int64 run values."""
    x_sum, f_sum, x_max, f_max = (u.reduceat(v, starts) for u, v in zip(
        (np.add, np.add, np.maximum, np.maximum), (X, F, X, F)))
    w = N * N // dens
    npairs = len(X)
    return {
        "ave_chi2": Fraction(sum(x_sum.tolist()), N * npairs),
        "max_chi2": Fraction(max(x_max.tolist()), N),
        "ave_f": Fraction(sum((w * f_sum).tolist()), N * N * npairs),
        "max_f": Fraction(max((w * f_max).tolist()), N * N),
        "E_d2": Fraction(sum((x_sum // dens).tolist()), npairs),
        "max_d2": Fraction(max((x_max // dens).tolist())),
    }


def _coincidence_totals(joint: dict[tuple[int, ...], int]) -> dict[int, int]:
    """Row-pair coincidence count -> row pairs, keys ascending: each key of
    a joint coincidence histogram summed over its level groups."""
    out = Counter()
    for key, c in joint.items():
        out[sum(key)] += c
    return dict(sorted(out.items()))


# -- wordlength pattern ------------------------------------------------------------

def krawtchouk(x: int, m: int, s: int, jmax: int) -> list[int]:
    """Krawtchouk values [P_0 .. P_min(jmax, m)] at x, exact.

    P_j = [z^j] (1 - z)^x (1 + (s-1) z)^(m-x) = sum_k (-1)^k (s-1)^(j-k)
    C(x, k) C(m-x, j-k), zero for j > m, by the three-term recurrence in
    Python integers: (j+1) P_{j+1} = ((m-j)(s-1) + j - s x) P_j
    - (s-1)(m-j+1) P_{j-1}."""
    P, prev = [1], 0
    for j in range(min(jmax, m)):
        nxt = ((m - j) * (s - 1) + j - s * x) * P[j] - (s - 1) * (m - j + 1) * prev
        prev = P[j]
        P.append(nxt // (j + 1))
    return P


def _times(a: list[int], b: list[int], jmax: int) -> list[int]:
    """Product of two integer polynomials, truncated after z^jmax."""
    out = [0] * min(jmax + 1, len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for k, bk in enumerate(b[:len(out) - i]):
            out[i + k] += ai * bk
    return out


def _gwlp(N: int, groups, joint: dict[tuple[int, ...], int],
          jmax: int) -> list[Fraction]:
    """[A_1 .. A_jmax] from a joint coincidence histogram over the given
    level_groups: each key (c_1 .. c_G), counted over ordered row pairs,
    adds its count times prod_g P(m_g - c_g; m_g, s_g)."""
    ordered = Counter({key: 2 * c for key, c in joint.items()})
    ordered[tuple(mg for _, mg in groups)] += N   # a = b agrees everywhere
    tables = [{c: krawtchouk(mg - c, mg, s, jmax) for c in {k[g] for k in ordered}}
              for g, (s, mg) in enumerate(groups)]
    total = [0] * (jmax + 1)
    for key, count in ordered.items():
        poly = [count]
        for table, c in zip(tables, key):
            poly = _times(poly, table[c], jmax)
        for j, v in enumerate(poly):
            total[j] += v
    return [Fraction(v, N * N) for v in total[1:]]


def strength(D: Design) -> int:
    """Largest t with every t-column projection equireplicated: the leading
    zeros of [A_1 .. A_m], read from one coincidence histogram (no pair
    sums) in doubling prefixes."""
    joint = joint_coincidences(D)
    groups = level_groups(D)
    jmax = 1
    while jmax < 2 * D.m:
        pattern = _gwlp(D.N, groups, joint, min(jmax, D.m))
        if any(pattern):
            return next(j for j, a in enumerate(pattern) if a)
        jmax *= 2
    return D.m


# -- aggregate report ------------------------------------------------------------

def round_half_away(x: Fraction) -> float:
    """Round a rational half away from zero at 2 decimal places, in
    integers: 100 |x| + 1/2 = (200 |n| + d) / (2d) for x = n / d, floored,
    then one correctly rounded division by 100."""
    n, d = x.numerator, x.denominator
    r = (200 * abs(n) + d) // (2 * d)
    return (-r if n < 0 else r) / 100


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
    gwlp: tuple[Fraction, ...]
    E_s2: Fraction | None
    coincidences: dict       # row-pair coincidence count -> row pairs


def aggregate_stats(D: Design, gwlp_jmax: int | None = None) -> CriteriaReport:
    """Evaluate every pairwise criterion of a design, exactly.

    gwlp_jmax=None gives the wordlength prefix up to min(3, m).  One call
    of design_sums gives the pair sums and the joint coincidence histogram;
    the pattern, worked out to at least A_2, checks the pairwise sum of the
    overall A2 at every level profile.  The report's levels stay in column
    order.
    """
    _require_evaluable(D)
    N, m = D.N, D.m
    if gwlp_jmax is None:
        gwlp_jmax = min(GWLP_DEFAULT_JMAX, m)
    if not 1 <= gwlp_jmax <= m:
        raise ValueError("jmax must lie in 1..m")
    P, F, joint = design_sums(D)
    groups = level_groups(D)
    X, dens, starts = _pair_numerators(D, groups, P)
    x_sum = int(X.sum())
    pattern = _gwlp(N, groups, joint, max(gwlp_jmax, 2))
    if pattern[1] != Fraction(x_sum, N * N):
        raise AssertionError("overall A2 disagrees with the pairwise sum")
    # E(s^2) = N^2 A2 / C(m, 2), defined for two-level designs
    es2 = Fraction(x_sum, math.comb(m, 2)) if groups == ((2, m),) else None
    return CriteriaReport(
        N=N, m=m, levels=D.levels,
        A2=pattern[1], histogram=_histogram(X, N),
        **_summary(X, F, N, dens, starts),
        gwlp=tuple(pattern[:gwlp_jmax]), E_s2=es2,
        coincidences=_coincidence_totals(joint))
