"""Lower bounds on overall A2 and the optimality certificate.

The sharpened equal-level bound (lb_theorem1) adds to the Cauchy-Schwarz term
of lb_lemma2 a correction from the integrality of row coincidence counts:
with K1 = m(N-s)/((N-1)s) and eta its fractional part,

    A2 >= m(s-1)(ms - m - N + 1)/(2(N-1)) + (N-1) s^2 eta (1-eta)/(2N),

and equality holds exactly when all pairwise coincidence counts differ by at
most one, in which case the design is optimal under generalized minimum
aberration.  The mixed-level bound (lb_theorem10) depends on the level
profile only through sum(s_k) - m, which the method of replacement leaves
invariant.  Certification uses exact rational equality, never a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .criteria import a2_overall, e_s2
from .design_core import Design, coincidence_counts


def lb_lemma2(N: int, m: int, s: int) -> Fraction:
    """Baseline equal-level bound m(s-1)(ms-m-N+1)/(2(N-1)); may be negative."""
    if N % s:
        raise ValueError("run count must be divisible by the level count")
    return Fraction(m * (s - 1) * (m * s - m - N + 1), 2 * (N - 1))


def eta_fraction(N: int, m: int, s: int) -> Fraction:
    """Fractional part of the mean coincidence count m(N-s)/((N-1)s)."""
    k1 = Fraction(m * (N - s), (N - 1) * s)
    return k1 - (k1.numerator // k1.denominator)


def lb_theorem1(N: int, m: int, s: int) -> Fraction:
    """Sharpened equal-level bound; achieved iff coincidence spread <= 1."""
    eta = eta_fraction(N, m, s)
    return lb_lemma2(N, m, s) + Fraction(N - 1, 2 * N) * s * s * eta * (1 - eta)


def lb_theorem10(N: int, levels) -> Fraction:
    """Mixed-level bound (T - m)(T - m - N + 1)/(2(N-1)) with T = sum levels."""
    levels = [int(s) for s in levels]
    for s in levels:
        if N % s:
            raise ValueError("run count must be divisible by every level count")
    T, m = sum(levels), len(levels)
    return Fraction((T - m) * (T - m - N + 1), 2 * (N - 1))


def lb_es2(N: int, m: int) -> Fraction:
    """Two-level E(s^2) bound N^2 (m-N+1)/[(m-1)(N-1)], clamped at zero.

    The bound is informative only for supersaturated designs (m > N - 1);
    below saturation the formula is nonpositive and 0 is returned.
    """
    if m < 2:
        raise ValueError("need at least two columns")
    raw = Fraction(N * N * (m - N + 1), (m - 1) * (N - 1))
    return max(raw, Fraction(0))


@dataclass(frozen=True)
class BoundReport:
    a2: Fraction
    theorem1_raw: Fraction | None    # equal levels only
    theorem1: Fraction | None        # clamped at zero
    lemma2: Fraction | None
    theorem10_raw: Fraction
    theorem10: Fraction
    eq1_es2: Fraction | None         # two-level designs only
    achieved_theorem1: bool | None
    achieved_theorem10: bool
    achieved_es2: bool | None
    coincidence_spread: int
    supersaturated: bool


def coincidence_spread(D: Design) -> int:
    """Largest minus smallest coincidence count over all row pairs."""
    counts = coincidence_counts(D)
    return max(counts) - min(counts)


def certify(D: Design) -> BoundReport:
    """Evaluate every applicable bound against the design's exact A2.

    Achievement flags compare A2 with the bound clamped at zero, so a
    strength-2 array trivially achieves a nonpositive bound.  For equal-level
    supersaturated designs achievement is equivalent to the coincidence
    counts spreading by at most one.
    """
    if not D.is_balanced:
        raise ValueError("certification requires a balanced design")
    a2 = a2_overall(D)
    t10_raw = lb_theorem10(D.N, D.levels)
    t10 = max(t10_raw, Fraction(0))
    if len(set(D.levels)) == 1:
        s = D.levels[0]
        t1_raw = lb_theorem1(D.N, D.m, s)
        t1 = max(t1_raw, Fraction(0))
        l2 = lb_lemma2(D.N, D.m, s)
        achieved1 = a2 == t1
        supersaturated = D.m * (s - 1) > D.N - 1
    else:
        t1_raw = t1 = l2 = None
        achieved1 = None
        supersaturated = sum(D.levels) - D.m > D.N - 1
    two_level = all(s == 2 for s in D.levels) and D.m >= 2
    es2_bound = lb_es2(D.N, D.m) if two_level else None
    achieved_es2 = (e_s2(D) == es2_bound) if two_level else None
    return BoundReport(
        a2=a2,
        theorem1_raw=t1_raw, theorem1=t1, lemma2=l2,
        theorem10_raw=t10_raw, theorem10=t10,
        eq1_es2=es2_bound,
        achieved_theorem1=achieved1,
        achieved_theorem10=a2 == t10,
        achieved_es2=achieved_es2,
        coincidence_spread=coincidence_spread(D),
        supersaturated=supersaturated)
