import math
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd.constructions import construct_thm4, construct_thm6, construct_thm8
from ssd.criteria import (a2_overall, a2_overall_from_pairs, aggregate_stats,
                          char_a2_matrix, e_s2, gwlp, pair_dependency_stats,
                          power_moment, projected_a2, projected_a2_char,
                          projected_a2_histogram, round_half_away)
from ssd.design_core import Design, column_juxtapose, realize, select_columns
from ssd.gf import Field, default_field
from ssd.oracle import gwlp_bruteforce
from ssd.poly_labels import h_set


@pytest.fixture(scope="module")
def ssd937(gf3):
    return construct_thm4(gf3, 2)


def test_power_moments(gf3, ssd937):
    H = realize(gf3, 2, h_set(gf3, 2))
    assert power_moment(H, 1) == 1 and power_moment(H, 2) == 1
    assert power_moment(ssd937, 1) == F(7, 4)   # m(N-s)/((N-1)s)
    one = select_columns(H, [0])
    with pytest.raises(ValueError):
        power_moment(one, 0)


def test_power_moment_single_column_all_distinct(gf3):
    D = realize(gf3, 1, h_set(gf3, 1))
    assert power_moment(D, 1) == 0


def test_a2_overall_values(gf3, ssd937):
    assert a2_overall(ssd937) == 6
    D16 = construct_thm6(gf3, 2, 4)
    assert a2_overall(D16) == 48
    quad = select_columns(D16, [i for i in range(16) if i % 4 != 0])
    assert a2_overall(quad) == 24
    H = realize(gf3, 2, h_set(gf3, 2))
    assert a2_overall(H) == 0


def test_a2_closed_form_equals_pairwise(gf3, gf4, ssd937):
    for D in (ssd937, construct_thm6(gf3, 2, 3), construct_thm8(gf4, 2, 2)):
        assert a2_overall(D) == a2_overall_from_pairs(D)


def test_a2_requires_balanced():
    D = Design([[0], [0], [0], [1]], [2], require_balanced=False)
    with pytest.raises(ValueError, match="balanced"):
        a2_overall(D)


def test_projected_a2_values(gf3, ssd937):
    H = realize(gf3, 2, h_set(gf3, 2))
    dup = column_juxtapose(H, H)
    assert projected_a2(dup, 0, 4) == 2          # fully aliased: s - 1
    assert projected_a2(ssd937, 1, 4) == F(2, 3)  # semi-orthogonal, s odd
    assert projected_a2(ssd937, 0, 1) == 0


def test_projected_a2_histogram_totals(ssd937):
    hist = projected_a2_histogram(ssd937)
    assert sum(hist.values()) == math.comb(7, 2)
    assert hist[F(2, 3)] == 9 and hist[F(0)] == 12


def test_pair_dependency_stats(gf3, ssd937):
    H = realize(gf3, 2, h_set(gf3, 2))
    dup = column_juxtapose(H, H)
    chi2, f, d2 = pair_dependency_stats(dup, 0, 4)
    assert (chi2, f, d2) == (18, 12, 18)
    assert pair_dependency_stats(ssd937, 0, 1) == (0, 0, 0)
    chi2s, _, _ = pair_dependency_stats(ssd937, 1, 4)
    assert chi2s == 6                            # N * (2/3)


def test_chi2_equals_n_times_a2(ssd937):
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            chi2, _, d2 = pair_dependency_stats(ssd937, i, j)
            assert chi2 == 9 * projected_a2(ssd937, i, j)
            assert d2 == chi2                    # N/s^2 = 1 here


def test_aggregate_identities(gf3):
    # ave(chi2) * C(m,2) = N * A2, E(d2) = N^2 A2 / (s^2 C(m,2))
    D = construct_thm6(gf3, 2, 3)
    rep = aggregate_stats(D)
    npairs = math.comb(D.m, 2)
    assert rep.ave_chi2 * npairs == D.N * rep.A2
    assert rep.E_d2 * npairs == D.N**2 * rep.A2 / (9)
    assert sum(rep.histogram.values()) == npairs
    assert rep.A2 == sum((v * c for v, c in rep.histogram.items()), F(0))


def test_aggregate_identities_mixed_levels(gf3):
    # the chi-square identity survives mixed level profiles
    from ssd.design_core import replace_column
    D = construct_thm6(default_field(4), 2, 2)
    table = realize(default_field(2), 2, h_set(default_field(2), 2)).matrix
    mixed = replace_column(D, 1, table)
    rep = aggregate_stats(mixed)
    assert rep.ave_chi2 * math.comb(mixed.m, 2) == mixed.N * rep.A2


def test_weighted_coincidence_identity(gf3):
    # J2 = N^2 A2 + N [N m (m-1) + N sum(s) - (sum s)^2] / 2 on mixed designs
    from ssd.design_core import coincidences, replace_column
    D = construct_thm6(default_field(4), 2, 2)
    table = realize(default_field(2), 2, h_set(default_field(2), 2)).matrix
    mixed = replace_column(D, 0, table)
    N, m = mixed.N, mixed.m
    T = sum(mixed.levels)
    dw = coincidences(mixed, weights=mixed.levels)
    j1 = int(dw[np.triu_indices(N, 1)].sum())
    j2 = int((dw[np.triu_indices(N, 1)].astype(object)**2).sum())
    assert j1 == N * (N * m - T) // 2
    assert F(j2) == N * N * a2_overall(mixed) + F(N * (N * m * (m - 1) + N * T - T * T), 2)


def test_e_s2(gf2):
    # two identical two-level columns: every pair contributes s_ij^2 = N^2
    col = [0, 0, 1, 1]
    D = Design(np.array([col, col]).T, (2, 2))
    assert e_s2(D) == 16
    H = realize(gf2, 2, h_set(gf2, 2))
    assert e_s2(H) == 0
    with pytest.raises(ValueError, match="two-level"):
        e_s2(realize(default_field(3), 2, h_set(default_field(3), 2)))


def test_es2_bound_achieved_by_branching(gf2):
    # one level-class of a branching column of the saturated 8-run array
    from ssd.bounds import lb_es2
    D = construct_thm8(gf2, 3, 1)
    assert (D.N, D.m) == (4, 6)
    assert e_s2(D) == lb_es2(4, 6) == F(16, 5)


def test_projected_a2_char_agrees(ssd937):
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            assert projected_a2_char(ssd937, i, j) == pytest.approx(
                float(projected_a2(ssd937, i, j)), abs=1e-9)


def test_projected_a2_char_fully_aliased_four_level(gf4):
    D = construct_thm6(gf4, 2, 2)
    from ssd.design_core import fully_aliased_pairs
    pairs = fully_aliased_pairs(D)
    assert len(pairs) == 1
    i, j = pairs[0]
    assert projected_a2_char(D, i, j) == pytest.approx(3.0, abs=1e-9)


def test_char_route_any_level_count():
    # Z_6 characters need no field: a fully aliased 6-level pair gives s - 1
    M = np.arange(6).reshape(6, 1) % 6
    D = Design(np.concatenate([M, M], axis=1), (6, 6))
    assert projected_a2_char(D, 0, 1) == pytest.approx(
        float(projected_a2(D, 0, 1)), abs=1e-9)


def test_char_matrix_matches_pairwise(ssd937):
    ch = char_a2_matrix(ssd937)
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            assert ch[i, j] == pytest.approx(float(projected_a2(ssd937, i, j)),
                                             abs=1e-9)


def test_gwlp_strength_characterization():
    # A_i = 0 up to the strength, positive after, on three saturated arrays
    for s in (3, 4, 5):
        f = default_field(s)
        D = realize(f, 2, h_set(f, 2))
        pattern = gwlp(D, 3)
        assert abs(pattern[0]) < 1e-9 and abs(pattern[1]) < 1e-9
        assert pattern[2] > 1e-6


def test_gwlp_values(gf3, ssd937):
    assert gwlp(ssd937, 2)[1] == pytest.approx(6.0, abs=1e-6)
    D6 = construct_thm8(gf3, 2, 2)
    assert gwlp(D6, 2)[1] == pytest.approx(1.5, abs=1e-9)


def test_gwlp_budget_guard(gf3):
    D = construct_thm6(gf3, 2, 4)
    with pytest.raises(ValueError, match="budget"):
        gwlp(D, 4, budget=10)
    with pytest.raises(ValueError, match="jmax"):
        gwlp(D, 0)


def test_gwlp_alternate_modulus():
    # representation invariance: the thm4 design built under either cubic
    # modulus of GF(8) has other symbols but the same pattern
    A = construct_thm4(default_field(8), 2)
    B = construct_thm4(Field(8, (1, 0, 1, 1)), 2)
    assert (A.matrix != B.matrix).any()
    assert gwlp(A, 3) == pytest.approx(gwlp(B, 3), abs=1e-9)


@st.composite
def any_level_designs(draw):
    """Random balanced designs whose level counts divide N: prime powers
    and others (6, 10, 12, 15).  Levels below N keep the brute-force j = 3
    sum small."""
    N = draw(st.sampled_from([12, 20, 24, 30]))
    divisors = [d for d in range(2, N) if N % d == 0]
    levels = draw(st.lists(st.sampled_from(divisors), min_size=3, max_size=6))
    cols = [draw(st.permutations([v for v in range(s) for _ in range(N // s)]))
            for s in levels]
    return Design(np.array(cols).T, levels)


@settings(max_examples=25, deadline=None)
@given(any_level_designs())
def test_gwlp_matches_real_contrasts_for_any_levels(D):
    pattern = gwlp(D, 3)
    for j in (1, 2, 3):
        assert pattern[j - 1] == pytest.approx(gwlp_bruteforce(D, j),
                                               abs=1e-9)
    assert pattern[1] == pytest.approx(float(a2_overall_from_pairs(D)),
                                       abs=1e-9)


def test_round_half_away():
    assert round_half_away(F(3, 2), 0) == 2.0
    assert round_half_away(F(25, 1000)) == 0.03
    assert round_half_away(F(-25, 1000)) == -0.03
    assert round_half_away(F(36, 11)) == 3.27


def test_report_builds_each_one_hot_once(gf3, gf9, monkeypatch):
    """One one-hot matrix for the Gram sums, one for the coincidences."""
    from ssd import design_core
    from ssd.design_core import replace_column
    from ssd.report import build_report

    calls = []
    one_hot = design_core._one_hot
    monkeypatch.setattr(design_core, "_one_hot",
                        lambda D: calls.append(D) or one_hot(D))
    equal = construct_thm6(gf3, 2, 2)
    mixed = replace_column(construct_thm6(gf9, 2, 2), 0,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    for D in (equal, mixed):
        calls.clear()
        build_report(D)
        assert len(calls) == 2
