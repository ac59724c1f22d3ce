"""Aliasing criteria, read from one exact report: overall A2 and its
projected histogram, chi-square, f and d^2 aggregates, the generalized
wordlength pattern, E(s^2) and the row coincidence counts (aggregate_stats).

Exact rational arithmetic is the source of truth everywhere a bound or a
catalog value is compared: projected A2 of a balanced pair (c_i, c_j) is

    A2(c_i, c_j) = chi2(c_i, c_j) / N = (s_i s_j sum_ab n_ab^2 - N^2) / N^2,

an integer ratio, and the overall A2 is both the closed form in the second
power moment K2 (equal levels) and the sum of all projected values.

Every pairwise statistic is an integer numerator over a known denominator.
With P = sum_ab n_ab^2 and F = sum_ab |s_i s_j n_ab - N| from one pass of
the kernel entry (design_core.design_sums: cell counts or one-hot Gram
tiles, over the columns in ascending level order, which no multiset
statistic depends on), and X = s_i s_j P - N^2:

    chi2 = X / N,   A2 = X / N^2,   d2 = X / (s_i s_j),   f = F / (s_i s_j).

The numerators are exact integers.  Cell counts are <= N <= 4096, and P is
at most N^2 <= 2^24, so even the float32 Gram route holds them exactly.  At
the 4096 x 4096 size limit the int64 sums stay far below 2^63
(P <= N^2, F <= 2 s_i s_j N <= 2^37), and so do the sums of X < N^3 and of F
over fewer than 2^23 pairs.  Sums and maxima of d2 and f are taken per
denominator s_i s_j and the totals accumulate in Python integers (Fractions).

The wordlength pattern is exact too: by the MacWilliams-type identity of
Xu & Wu (2001, Ann. Statist. 29), A_j = N^-2 sum over ordered row pairs
(a = b included) of [z^j] prod_g (1 - z)^{d_g} (1 + (s_g - 1) z)^{m_g - d_g},
with d_g the number of the m_g columns of level group g where the rows
differ.  So one joint coincidence histogram gives every A_j, for any level
profile.  The independent routes these values are checked against (per-pair
tables, Z_s characters, real contrasts) live in ssd.oracle.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import Design, design_sums, level_groups, pair_starts

GWLP_DEFAULT_JMAX = 3


def _require_evaluable(D: Design) -> None:
    if not D.is_balanced:
        raise ValueError("requires a balanced design")
    if D.m < 2:
        raise ValueError("need at least two columns")


def _pair_numerators(D: Design, P: np.ndarray) -> tuple[np.ndarray,
                                                        int | np.ndarray]:
    """X = s_i s_j P - N^2 and the denominators s_i s_j over the pairs
    i < j of D's columns in ascending level order, row-major, as
    design_sums gives P.  X is P, rewritten in place; the denominators are
    one integer when the levels are equal, else a vector written one row i
    of pairs at a time."""
    if len(set(D.levels)) == 1:
        den = D.levels[0] ** 2
    else:
        lev = np.sort(np.asarray(D.levels, dtype=np.int64))
        den = np.empty_like(P)
        starts = pair_starts(D.m)
        for i in range(D.m - 1):
            np.multiply(lev[i + 1:], lev[i], out=den[starts[i]:starts[i + 1]])
    P *= den
    P -= D.N * D.N
    return P, den


def _histogram(X: np.ndarray, N: int) -> dict:
    """Projected A2 value -> pair count, keys ascending."""
    vals, counts = np.unique(X, return_counts=True)
    return {Fraction(v, N * N): c for v, c in zip(vals.tolist(), counts.tolist())}


def _a2_closed_form(N: int, m: int, s: int, counts: dict[int, int]) -> Fraction:
    """[(N-1) s^2 K2 + m^2 s^2 - N m (m + s - 1)] / (2N), K2 the second
    power moment of the coincidence counts over the C(N, 2) row pairs."""
    K2 = Fraction(sum(c * v * v for v, c in counts.items()), N * (N - 1) // 2)
    return ((N - 1) * s * s * K2 + m * m * s * s
            - N * m * (m + s - 1)) / Fraction(2 * N)


def _summary(X: np.ndarray, den, F: np.ndarray, N: int,
             levels) -> dict[str, Fraction]:
    npairs = len(X)
    f_sum = d2_sum = f_max = d2_max = Fraction(0)
    if np.ndim(den) == 0:
        groups = [(den, X, F)]
    else:
        levels = set(levels)
        groups = [(d, X[sel], F[sel])
                  for d in {a * b for a in levels for b in levels}
                  if (sel := den == d).any()]
    for d, Xd, Fd in groups:
        d2_sum += Fraction(int(Xd.sum()), d)
        f_sum += Fraction(int(Fd.sum()), d)
        d2_max = max(d2_max, Fraction(int(Xd.max()), d))
        f_max = max(f_max, Fraction(int(Fd.max()), d))
    return {
        "ave_chi2": Fraction(int(X.sum()), N * npairs),
        "max_chi2": Fraction(int(X.max()), N),
        "ave_f": f_sum / npairs, "max_f": f_max,
        "E_d2": d2_sum / npairs, "max_d2": d2_max,
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


def _gwlp(D: Design, joint: dict[tuple[int, ...], int],
          jmax: int) -> list[Fraction]:
    """[A_1 .. A_jmax] from D's joint coincidence histogram: each key
    (c_1 .. c_G), counted over ordered row pairs, adds its count times
    prod_g P(m_g - c_g; m_g, s_g)."""
    groups = level_groups(D)
    ordered = Counter({key: 2 * c for key, c in joint.items()})
    ordered[tuple(mg for _, mg in groups)] += D.N   # a = b agrees everywhere
    tables = [{c: krawtchouk(mg - c, mg, s, jmax) for c in {k[g] for k in ordered}}
              for g, (s, mg) in enumerate(groups)]
    total = [0] * (jmax + 1)
    for key, count in ordered.items():
        poly = [count]
        for table, c in zip(tables, key):
            poly = _times(poly, table[c], jmax)
        for j, v in enumerate(poly):
            total[j] += v
    return [Fraction(v, D.N * D.N) for v in total[1:]]


def strength(D: Design) -> int:
    """Largest t with every t-column projection equireplicated: the leading
    zeros of [A_1 .. A_m], read from one histogram in doubling prefixes."""
    joint = design_sums(D)[2]
    jmax = 1
    while jmax < 2 * D.m:
        pattern = _gwlp(D, joint, min(jmax, D.m))
        if any(pattern):
            return next(j for j, a in enumerate(pattern) if a)
        jmax *= 2
    return D.m


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
    gwlp: tuple[Fraction, ...]
    E_s2: Fraction | None
    coincidences: dict       # row-pair coincidence count -> row pairs


def aggregate_stats(D: Design, gwlp_jmax: int | None = None) -> CriteriaReport:
    """Evaluate every pairwise criterion of a design, exactly.

    gwlp_jmax=None gives the wordlength prefix up to min(3, m).  One call
    of design_sums gives the pair sums and the joint coincidence histogram;
    with equal levels the closed form of the overall A2 cross-checks the
    pairwise sum.  The report's levels stay in column order.
    """
    _require_evaluable(D)
    N, m = D.N, D.m
    if gwlp_jmax is None:
        gwlp_jmax = min(GWLP_DEFAULT_JMAX, m)
    if not 1 <= gwlp_jmax <= m:
        raise ValueError("jmax must lie in 1..m")
    P, F, joint = design_sums(D)
    X, den = _pair_numerators(D, P)
    a2 = Fraction(int(X.sum()), N * N)
    pattern = tuple(_gwlp(D, joint, gwlp_jmax))
    counts = _coincidence_totals(joint)
    if (len(set(D.levels)) == 1
            and _a2_closed_form(N, m, D.levels[0], counts) != a2):
        raise AssertionError("overall A2 disagrees with the pairwise sum")
    # E(s^2) = N^2 A2 / C(m, 2), defined for two-level designs
    es2 = N * N * a2 / math.comb(m, 2) if set(D.levels) == {2} else None
    return CriteriaReport(
        N=N, m=m, levels=D.levels,
        A2=a2, histogram=_histogram(X, N),
        **_summary(X, den, F, N, D.levels),
        gwlp=pattern, E_s2=es2, coincidences=counts)
