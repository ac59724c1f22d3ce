from fractions import Fraction as F

import pytest

from ssd.bounds import (certify, eta_fraction, lb_es2, lb_lemma2,
                        lb_theorem1, lb_theorem10)
from ssd.constructions import construct_thm4, construct_thm6
from ssd.criteria import aggregate_stats
from ssd.design_core import realize, select_columns
from ssd.gf import default_field
from ssd.poly_labels import h_set


def test_lb_theorem1_values():
    assert lb_theorem1(9, 7, 3) == 6
    assert lb_theorem1(18, 12, 3) == 6
    assert lb_theorem1(9, 12, 3) == 24
    assert lb_theorem1(16, 15, 4) == 45
    assert lb_theorem1(64, 231, 4) == 3465
    assert lb_theorem1(6, 2, 3) == F(1, 2)
    assert lb_theorem1(6, 3, 3) == F(3, 2)


def test_lb_lemma2_values():
    assert lb_lemma2(9, 8, 3) == 8
    assert lb_lemma2(9, 7, 3) == F(21, 4)      # strictly below the sharp bound
    assert lb_lemma2(9, 4, 3) == 0             # saturated array width
    with pytest.raises(ValueError, match="divisible"):
        lb_lemma2(10, 4, 3)


def test_eta_term_properties():
    for N in range(6, 82, 3):
        for s in (3, 4, 5):
            if N % s:
                continue
            for m in range(2, 201, 7):
                eta = eta_fraction(N, m, s)
                assert 0 <= eta < 1
                assert (eta == 0) == ((m * (N - s)) % ((N - 1) * s) == 0)
                assert lb_theorem1(N, m, s) >= lb_lemma2(N, m, s)


def test_lb_theorem10_values():
    assert lb_theorem10(9, [3] * 7) == lb_lemma2(9, 7, 3)
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
    (lambda: lb_lemma2(1, 2, 2), "run count N must be at least 2, got 1"),
    (lambda: lb_lemma2(4, 2, 1), "level count s must be at least 2, got 1"),
    (lambda: eta_fraction(4, 2, 0), "level count s must be at least 2, got 0"),
    (lambda: lb_theorem1(0, 2, 2), "run count N must be at least 2, got 0"),
    (lambda: lb_theorem10(4, [2, -2]),
     "level count in levels must be at least 2, got -2"),
    (lambda: lb_es2(1, 3), "run count N must be at least 2, got 1"),
    (lambda: lb_lemma2(9, 0, 3), "column count m must be at least 1, got 0"),
    (lambda: eta_fraction(9, -4, 3), "column count m must be at least 1, got -4"),
    (lambda: lb_theorem1(9, -4, 3), "column count m must be at least 1, got -4"),
    (lambda: lb_theorem10(9, []), "column count m must be at least 1, got 0"),
    (lambda: lb_es2(4, 0), "column count m must be at least 1, got 0")])
def test_bounds_reject_degenerate_shapes(call, match):
    with pytest.raises(ValueError, match=match):
        call()
