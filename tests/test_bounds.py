import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.bounds import certify, lb_es2, lb_theorem1, lb_theorem10
from ssd.constructions import construct_thm4, construct_thm6
from ssd.criteria import aggregate_stats
from ssd.design_core import Design, realize, select_columns
from ssd.gf import default_field
from ssd.poly_labels import h_set


# The paper's bounds as printed, each written out on its own.
def lemma2(N, m, s):
    """Lemma 2: A2 >= m(s-1)(ms - m - N + 1) / (2(N-1))."""
    return F(m * (s - 1) * (m * s - m - N + 1), 2 * (N - 1))


def theorem1(N, m, s):
    """Theorem 1: Lemma 2 plus (N-1) s^2 eta(1-eta) / (2N), eta the
    fractional part of K1 = m(N-s) / ((N-1)s)."""
    K1 = F(m * (N - s), (N - 1) * s)
    eta = K1 - math.floor(K1)
    return lemma2(N, m, s) + F(N - 1, 2 * N) * s ** 2 * eta * (1 - eta)


def theorem10(N, levels):
    """Theorem 10: A2 >= (T - m)(T - m - N + 1) / (2(N-1)), T = sum of s_k."""
    T, m = sum(levels), len(levels)
    return F((T - m) * (T - m - N + 1), 2 * (N - 1))


def es2_bound(N, m):
    """Eq. (1): E(s^2) >= N^2 (m - N + 1) / ((m - 1)(N - 1)), clamped at 0."""
    return max(F(N * N * (m - N + 1), (m - 1) * (N - 1)), F(0))


def test_lb_theorem1_values():
    assert lb_theorem1(9, 7, 3) == 6
    assert lb_theorem1(18, 12, 3) == 6
    assert lb_theorem1(9, 12, 3) == 24
    assert lb_theorem1(16, 15, 4) == 45
    assert lb_theorem1(64, 231, 4) == 3465
    assert lb_theorem1(6, 2, 3) == F(1, 2)
    assert lb_theorem1(6, 3, 3) == F(3, 2)


def test_lb_lemma2_values():
    # Lemma 2 is Theorem 10's bound at equal levels
    assert lb_theorem10(9, [3] * 8) == 8
    assert lb_theorem10(9, [3] * 7) == F(21, 4)   # strictly below the sharp bound
    assert lb_theorem10(9, [3] * 4) == 0          # saturated array width
    with pytest.raises(ValueError,
                       match="^run count must be divisible by the level count$"):
        lb_theorem1(10, 4, 3)


def test_eta_term_properties():
    # the integrality term Theorem 1 adds to Lemma 2 is nonnegative, and
    # zero exactly when the mean coincidence count K1 is an integer
    for N in range(6, 82, 3):
        for s in (3, 4, 5):
            if N % s:
                continue
            for m in range(2, 201, 7):
                term = lb_theorem1(N, m, s) - lb_theorem10(N, [s] * m)
                assert term >= 0
                assert (term == 0) == ((m * (N - s)) % ((N - 1) * s) == 0)


def test_bounds_match_the_printed_formulas():
    # every shape with 2 <= N <= 199, 2 <= s <= 12, s | N, m = 1, 8, ..., 295
    shapes = 0
    for N in range(2, 200):
        for s in range(2, 13):
            if N % s:
                continue
            for m in range(1, 296, 7):
                shapes += 1
                t10 = lb_theorem10(N, [s] * m)
                assert t10 == lemma2(N, m, s) == theorem10(N, [s] * m)
                assert lb_theorem1(N, m, s) == theorem1(N, m, s)
                if m > 1:
                    # E(s^2) = N^2 A2 / C(m, 2): eq. (1) is Lemma 2 at s = 2,
                    # rescaled
                    assert lb_es2(N, m) == es2_bound(N, m) == max(
                        F(N * N, math.comb(m, 2)) * lemma2(N, m, 2), 0)
    assert shapes == 17759


def test_certify_matches_the_printed_formulas(catalog_rows, gf3):
    from ssd.design_core import replace_column
    two = construct_thm4(default_field(2), 4)
    mixed = replace_column(construct_thm6(default_field(9), 2, 2), 0,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    # strength-2 arrays: a raw bound of 0, and a negative one (27-run pair)
    H27 = realize(default_field(3), 3, h_set(default_field(3), 3))
    oas = [realize(gf3, 2, h_set(gf3, 2)), select_columns(H27, [0, 1])]
    designs = [D for _, D in catalog_rows] + [two, mixed, *oas]
    for D in designs:
        cert = certify(aggregate_stats(D, gwlp_jmax=1))
        N, m, levels = D.N, D.m, D.levels
        assert cert.theorem10 == max(theorem10(N, levels), 0)
        assert cert.achieved_theorem10 == (cert.a2 == cert.theorem10)
        if len(set(levels)) == 1:
            s = levels[0]
            assert cert.lemma2 == lemma2(N, m, s)
            assert cert.theorem1_raw == theorem1(N, m, s)
            assert cert.theorem1 == max(theorem1(N, m, s), 0)
        else:
            assert cert.lemma2 is cert.theorem1_raw is cert.theorem1 is None
        if set(levels) == {2}:
            assert cert.eq1_es2 == es2_bound(N, m)
        else:
            assert cert.eq1_es2 is cert.achieved_es2 is None
    # the 16-run two-level design meets Theorem 1 but neither Theorem 10
    # nor the E(s^2) bound
    cert = certify(aggregate_stats(two))
    assert (cert.theorem1, cert.lemma2, cert.eq1_es2) == (14, F(203, 15),
                                                          F(128, 15))
    assert cert.achieved_theorem1
    assert not cert.achieved_theorem10 and not cert.achieved_es2


@st.composite
def two_level_designs(draw):
    """Random balanced two-level designs, N <= 32 and m <= 40."""
    N = 2 * draw(st.integers(1, 16))
    m = draw(st.integers(2, 40))
    rnd = draw(st.randoms(use_true_random=False))
    cols = []
    for _ in range(m):
        cols.append([0, 1] * (N // 2))
        rnd.shuffle(cols[-1])
    return Design(np.array(cols).T, [2] * m)


@settings(max_examples=60, deadline=None)
@given(two_level_designs())
def test_two_level_certificate(D):
    N, m = D.N, D.m
    rep = aggregate_stats(D, gwlp_jmax=1)
    cert = certify(rep)
    assert cert.achieved_es2 == cert.achieved_theorem10
    assert cert.eq1_es2 == max(F(N * N * (m - N + 1), (m - 1) * (N - 1)), 0)
    assert cert.achieved_es2 == (rep.E_s2 == cert.eq1_es2)


def test_lb_theorem10_values():
    assert lb_theorem10(81, [9] * 100) == 3600
    assert lb_theorem10(81, [9] * 99 + [3] * 4) == 3600
    with pytest.raises(ValueError, match="divisible"):
        lb_theorem10(9, [3, 2])


def test_lb_es2_values():
    assert lb_es2(8, 14) == F(64, 13)
    assert lb_es2(12, 22) == F(48, 7)
    assert lb_es2(8, 7) == 0                   # saturated: clamped at zero
    assert lb_es2(8, 4) == 0


def test_certify_achieved(gf3):
    cert = certify(aggregate_stats(construct_thm4(gf3, 2)))
    assert cert.achieved_theorem1 and cert.theorem1 == 6
    assert cert.coincidence_spread <= 1
    assert cert.supersaturated


def test_certify_strength2_oa_trivial(gf3):
    H = realize(gf3, 2, h_set(gf3, 2))
    cert = certify(aggregate_stats(H))
    assert cert.a2 == 0 and cert.achieved_theorem1
    assert not cert.supersaturated
    # a plain orthogonal pair in 27 runs: negative raw bound, clamped, achieved
    H27 = realize(default_field(3), 3, h_set(default_field(3), 3))
    two = select_columns(H27, [0, 1])
    c2 = certify(aggregate_stats(two))
    assert c2.theorem1_raw < 0 and c2.theorem1 == 0 and c2.achieved_theorem1


def test_certify_iff_condition_breaks_with_duplicates(gf3):
    # duplicated saturated arrays keep the spread at zero and stay optimal;
    # adding ONE extra column also stays optimal; adding the same column
    # twice spreads the coincidences by two and loses the bound
    H = realize(gf3, 2, h_set(gf3, 2))
    dup = select_columns(H, [0, 1, 2, 3] * 2)
    cert = certify(aggregate_stats(dup))
    assert cert.achieved_theorem1 and cert.coincidence_spread == 0
    plus_one = select_columns(H, [0, 1, 2, 3, 0])
    assert certify(aggregate_stats(plus_one)).achieved_theorem1
    plus_two = select_columns(H, [0, 1, 2, 3, 0, 0])
    cert2 = certify(aggregate_stats(plus_two))
    assert not cert2.achieved_theorem1
    assert cert2.coincidence_spread > 1
    assert cert2.a2 > cert2.theorem1


def test_certify_iff_both_ways(catalog_rows):
    # on every shipped design: bound met exactly <-> spread at most one
    for recipe, D in catalog_rows:
        cert = certify(aggregate_stats(D))
        assert cert.achieved_theorem1 == (cert.coincidence_spread <= 1)
        assert cert.achieved_theorem1


def test_certify_mixed_profile(gf3):
    from ssd.design_core import replace_column
    D = construct_thm6(default_field(9), 2, 2)
    table = realize(gf3, 2, h_set(gf3, 2)).matrix
    mixed = replace_column(D, 0, table)
    cert = certify(aggregate_stats(mixed))
    assert cert.theorem1 is None and cert.achieved_theorem1 is None
    assert cert.theorem10 == max(lb_theorem10(81, mixed.levels), 0)
    assert cert.a2 == 80      # s^2 - 1 of the parent: replacement keeps it


def test_certify_requires_balance():
    from ssd.design_core import Design
    D = Design([[0], [0], [0], [1]], [2], require_balanced=False)
    with pytest.raises(ValueError, match="balanced"):
        certify(aggregate_stats(D))


@pytest.mark.parametrize("call,match", [
    (lambda: lb_theorem1(1, 2, 2), "run count N must be at least 2, got 1"),
    (lambda: lb_theorem1(4, 2, 1), "level count s must be at least 2, got 1"),
    (lambda: lb_theorem1(4, 2, 0), "level count s must be at least 2, got 0"),
    (lambda: lb_theorem1(0, 2, 2), "run count N must be at least 2, got 0"),
    (lambda: lb_theorem10(4, [2, -2]),
     "level count in levels must be at least 2, got -2"),
    (lambda: lb_es2(1, 3), "run count N must be at least 2, got 1"),
    (lambda: lb_theorem1(9, 0, 3), "column count m must be at least 1, got 0"),
    (lambda: lb_theorem1(9, -4, 3), "column count m must be at least 1, got -4"),
    (lambda: lb_theorem10(9, []), "column count m must be at least 1, got 0"),
    (lambda: lb_es2(4, 0), "column count m must be at least 1, got 0")])
def test_bounds_reject_degenerate_shapes(call, match):
    with pytest.raises(ValueError, match=match):
        call()
