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

from .criteria import CriteriaReport


def _check_shape(N: int, m: int, levels, name: str = "s") -> None:
    """Reject the shapes the bounds are undefined on, naming the bad argument."""
    if N < 2:
        raise ValueError(f"run count N must be at least 2, got {N}")
    for s in levels:
        if s < 2:
            raise ValueError(f"level count {name} must be at least 2, got {s}")
    if m < 1:
        raise ValueError(f"column count m must be at least 1, got {m}")


def lb_lemma2(N: int, m: int, s: int) -> Fraction:
    """Baseline equal-level bound m(s-1)(ms-m-N+1)/(2(N-1)); may be negative."""
    _check_shape(N, m, (s,))
    if N % s:
        raise ValueError("run count must be divisible by the level count")
    return Fraction(m * (s - 1) * (m * s - m - N + 1), 2 * (N - 1))


def eta_fraction(N: int, m: int, s: int) -> Fraction:
    """Fractional part of the mean coincidence count m(N-s)/((N-1)s)."""
    _check_shape(N, m, (s,))
    k1 = Fraction(m * (N - s), (N - 1) * s)
    return k1 - (k1.numerator // k1.denominator)


def lb_theorem1(N: int, m: int, s: int) -> Fraction:
    """Sharpened equal-level bound; achieved iff coincidence spread <= 1."""
    eta = eta_fraction(N, m, s)
    return lb_lemma2(N, m, s) + Fraction(N - 1, 2 * N) * s * s * eta * (1 - eta)


def lb_theorem10(N: int, levels) -> Fraction:
    """Mixed-level bound (T - m)(T - m - N + 1)/(2(N-1)) with T = sum levels."""
    # each level once, in order of first appearance
    distinct = [int(s) for s in dict.fromkeys(levels)]
    _check_shape(N, len(levels), distinct, "in levels")
    for s in distinct:
        if N % s:
            raise ValueError("run count must be divisible by every level count")
    T, m = int(sum(levels)), len(levels)
    return Fraction((T - m) * (T - m - N + 1), 2 * (N - 1))


def lb_es2(N: int, m: int) -> Fraction:
    """Two-level E(s^2) bound N^2 (m-N+1)/[(m-1)(N-1)], clamped at zero.

    The bound is informative only for supersaturated designs (m > N - 1);
    below saturation the formula is nonpositive and 0 is returned.
    """
    _check_shape(N, m, ())
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
    theorem10: Fraction
    eq1_es2: Fraction | None         # two-level designs only
    achieved_theorem1: bool | None
    achieved_theorem10: bool
    achieved_es2: bool | None
    coincidence_spread: int
    supersaturated: bool


def certify(stats: CriteriaReport) -> BoundReport:
    """Evaluate every applicable bound against a design's exact A2.

    stats, the design's aggregate_stats, supplies the shape, the level
    profile, A2 and the coincidence counts.  Achievement flags compare A2
    with the bound clamped at zero, so a strength-2 array trivially achieves
    a nonpositive bound.  For equal-level supersaturated designs achievement
    is equivalent to the coincidence counts spreading by at most one.
    """
    N, m, levels, a2 = stats.N, stats.m, stats.levels, stats.A2
    distinct = set(levels)
    t10 = max(lb_theorem10(N, levels), Fraction(0))
    if len(distinct) == 1:
        s = levels[0]
        t1_raw = lb_theorem1(N, m, s)
        t1 = max(t1_raw, Fraction(0))
        l2 = lb_lemma2(N, m, s)
        achieved1 = a2 == t1
    else:
        t1_raw = t1 = l2 = None
        achieved1 = None
    two_level = distinct == {2}
    es2_bound = lb_es2(N, m) if two_level else None
    achieved_es2 = (stats.E_s2 == es2_bound) if two_level else None
    return BoundReport(
        a2=a2,
        theorem1_raw=t1_raw, theorem1=t1, lemma2=l2,
        theorem10=t10,
        eq1_es2=es2_bound,
        achieved_theorem1=achieved1,
        achieved_theorem10=a2 == t10,
        achieved_es2=achieved_es2,
        coincidence_spread=max(stats.coincidences) - min(stats.coincidences),
        supersaturated=sum(levels) - m > N - 1)
