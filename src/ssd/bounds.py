"""Lower bounds on overall A2 and the optimality certificate.

All of them come from one count of row coincidences.  Theorem 10 bounds A2
by (T - m)(T - m - N + 1)/(2(N-1)), T the sum of the level counts, which the
method of replacement leaves invariant.  Lemma 2 is that closed form at
T = ms, and the two-level E(s^2) bound is its N^2/C(m, 2) rescaling at
T = 2m.  Theorem 1 adds the integrality term (N-1) s^2 eta (1-eta)/(2N), eta
the fractional part of m(N-s)/((N-1)s); it is met exactly when all pairwise
coincidence counts differ by at most one, which makes the design optimal
under generalized minimum aberration.  Certification uses exact rational
equality, never a tolerance.
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


def _coincidence_bound(N: int, T: int, m: int) -> Fraction:
    """Theorem 10's (T - m)(T - m - N + 1)/(2(N-1)), T the level sum."""
    return Fraction((T - m) * (T - m - N + 1), 2 * (N - 1))


def _es2_per_a2(N: int, m: int) -> Fraction:
    """E(s^2) / A2 = N^2 / C(m, 2) of a two-level design."""
    return Fraction(2 * N * N, m * (m - 1))


def lb_theorem1(N: int, m: int, s: int) -> Fraction:
    """Sharpened equal-level bound; achieved iff coincidence spread <= 1.

    Lemma 2 is Theorem 10's bound at T = ms (the E(s^2) bound is its
    N^2/C(m, 2) rescaling at s = 2); Theorem 1 adds the integrality term
    (N-1) s^2 eta (1-eta)/(2N), eta the fractional part of m(N-s)/((N-1)s).
    """
    _check_shape(N, m, (s,))
    if N % s:
        raise ValueError("run count must be divisible by the level count")
    eta = Fraction(m * (N - s) % ((N - 1) * s), (N - 1) * s)
    return (_coincidence_bound(N, m * s, m)
            + Fraction(N - 1, 2 * N) * s * s * eta * (1 - eta))


def lb_theorem10(N: int, levels) -> Fraction:
    """Mixed-level bound (T - m)(T - m - N + 1)/(2(N-1)) with T = sum levels."""
    # each level once, in order of first appearance
    distinct = [int(s) for s in dict.fromkeys(levels)]
    _check_shape(N, len(levels), distinct, "in levels")
    for s in distinct:
        if N % s:
            raise ValueError("run count must be divisible by every level count")
    return _coincidence_bound(N, int(sum(levels)), len(levels))


def lb_es2(N: int, m: int) -> Fraction:
    """Two-level E(s^2) bound N^2 (m-N+1)/[(m-1)(N-1)], clamped at zero.

    The bound is informative only for supersaturated designs (m > N - 1);
    below saturation the formula is nonpositive and 0 is returned.
    """
    _check_shape(N, m, ())
    if m < 2:
        raise ValueError("need at least two columns")
    return max(_es2_per_a2(N, m) * _coincidence_bound(N, 2 * m, m),
               Fraction(0))


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
    E(s^2) = N^2 A2 / C(m, 2) meets its bound iff A2 meets Theorem 10's.
    """
    N, m, levels, a2 = stats.N, stats.m, stats.levels, stats.A2
    distinct = set(levels)
    raw = lb_theorem10(N, levels)
    t10 = max(raw, Fraction(0))
    if len(distinct) == 1:    # Lemma 2 is Theorem 10's bound at equal levels
        t1_raw, l2 = lb_theorem1(N, m, levels[0]), raw
        t1 = max(t1_raw, Fraction(0))
        achieved1 = a2 == t1
    else:
        t1_raw = t1 = l2 = achieved1 = None
    two_level = distinct == {2}
    return BoundReport(
        a2=a2,
        theorem1_raw=t1_raw, theorem1=t1, lemma2=l2,
        theorem10=t10,
        eq1_es2=_es2_per_a2(N, m) * t10 if two_level else None,
        achieved_theorem1=achieved1,
        achieved_theorem10=a2 == t10,
        achieved_es2=a2 == t10 if two_level else None,
        coincidence_spread=max(stats.coincidences) - min(stats.coincidences),
        supersaturated=sum(levels) - m > N - 1)
