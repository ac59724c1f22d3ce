import json
import math
from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import criteria
from ssd.constructions import construct_thm4, construct_thm6, construct_thm8
from ssd.criteria import aggregate_stats, krawtchouk, round_half_away, strength
from ssd.design_core import (Design, design_sums, realize, replace_column,
                             select_columns)
from ssd.gf import Field, default_field
from ssd.oracle import (a2_closed_form, char_a2_matrix, classify_pair,
                        coincidences, fully_aliased_pairs, gwlp_bruteforce,
                        is_oa, pair_a2_from_table, pair_dependency_stats,
                        pair_table)
from ssd.poly_labels import h_set


@pytest.fixture(scope="module")
def ssd937(gf3):
    return construct_thm4(gf3, 2)


def oracle_a2(D, i, j):
    return pair_a2_from_table(pair_table(D, i, j), D.N)


def moment(rep, t):
    """t-th power moment of the report's row coincidence counts."""
    return F(sum(c * v**t for v, c in rep.coincidences.items()),
             math.comb(rep.N, 2))


def test_power_moments(gf3, ssd937):
    rep = aggregate_stats(realize(gf3, 2, h_set(gf3, 2)))
    assert rep.coincidences == {1: 36}
    assert moment(rep, 1) == 1 and moment(rep, 2) == 1
    assert moment(aggregate_stats(ssd937), 1) == F(7, 4)   # m(N-s)/((N-1)s)


def test_power_moment_single_column_all_distinct(gf3):
    D = realize(gf3, 1, h_set(gf3, 1))
    assert design_sums(D)[2] == {(0,): 3}


def test_a2_overall_values(gf3, ssd937):
    assert aggregate_stats(ssd937).A2 == 6
    D16 = construct_thm6(gf3, 2, 4)
    assert aggregate_stats(D16).A2 == 48
    quad = select_columns(D16, [i for i in range(16) if i % 4 != 0])
    assert aggregate_stats(quad).A2 == 24
    H = realize(gf3, 2, h_set(gf3, 2))
    assert aggregate_stats(H).A2 == 0


def test_a2_closed_form_equals_pairwise(gf3, gf4, ssd937):
    # the report's pairwise sum, its closed form in the second power moment,
    # and the sum of the row-counted pair values agree
    for D in (ssd937, construct_thm6(gf3, 2, 3), construct_thm8(gf4, 2, 2)):
        rep = aggregate_stats(D)
        assert a2_closed_form(D.N, D.m, D.levels[0], rep.coincidences) == rep.A2
        assert rep.A2 == sum(oracle_a2(D, i, j) for i in range(D.m)
                             for j in range(i + 1, D.m))


def test_a2_requires_balanced():
    D = Design([[0], [0], [0], [1]], [2], require_balanced=False)
    with pytest.raises(ValueError, match="balanced"):
        aggregate_stats(D)


def test_projected_a2_values(gf3, ssd937):
    H = realize(gf3, 2, h_set(gf3, 2))
    dup = Design(np.hstack([H.matrix, H.matrix]), H.levels * 2)
    for D, i, j, want in ((dup, 0, 4, 2),             # fully aliased: s - 1
                          (ssd937, 1, 4, F(2, 3)),    # semi-orthogonal, s odd
                          (ssd937, 0, 1, 0)):
        assert aggregate_stats(select_columns(D, [i, j])).A2 \
            == oracle_a2(D, i, j) == want


def test_projected_a2_histogram_totals(ssd937):
    hist = aggregate_stats(ssd937).histogram
    assert sum(hist.values()) == math.comb(7, 2)
    assert hist[F(2, 3)] == 9 and hist[F(0)] == 12


def test_pair_dependency_stats(gf3, ssd937):
    H = realize(gf3, 2, h_set(gf3, 2))
    dup = Design(np.hstack([H.matrix, H.matrix]), H.levels * 2)
    chi2, f, d2 = pair_dependency_stats(dup, 0, 4)
    assert (chi2, f, d2) == (18, 12, 18)
    assert pair_dependency_stats(ssd937, 0, 1) == (0, 0, 0)
    chi2s, _, _ = pair_dependency_stats(ssd937, 1, 4)
    assert chi2s == 6                            # N * (2/3)


def test_chi2_equals_n_times_a2(ssd937):
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            chi2, _, d2 = pair_dependency_stats(ssd937, i, j)
            assert chi2 == 9 * oracle_a2(ssd937, i, j)
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
    # J2 = N^2 A2 + N [N m (m-1) + N sum(s) - (sum s)^2] / 2 on mixed designs,
    # and the weighted dense counts are the level-weighted joint histogram
    from ssd.design_core import level_groups, replace_column
    D = construct_thm6(default_field(4), 2, 2)
    table = realize(default_field(2), 2, h_set(default_field(2), 2)).matrix
    mixed = replace_column(D, 0, table)
    N, m = mixed.N, mixed.m
    T = sum(mixed.levels)
    dw = coincidences(mixed, weights=mixed.levels)[np.triu_indices(N, 1)]
    j1 = int(dw.sum())
    j2 = int((dw.astype(object)**2).sum())
    assert j1 == N * (N * m - T) // 2
    assert F(j2) == (N * N * aggregate_stats(mixed).A2
                     + F(N * (N * m * (m - 1) + N * T - T * T), 2))
    weighted = Counter()
    for key, c in design_sums(mixed)[2].items():
        weighted[sum(s * k for (s, _), k in zip(level_groups(mixed), key))] += c
    assert Counter(dw.tolist()) == weighted


def test_e_s2(gf2):
    # two identical two-level columns: every pair contributes s_ij^2 = N^2
    col = [0, 0, 1, 1]
    D = Design(np.array([col, col]).T, (2, 2))
    assert aggregate_stats(D).E_s2 == 16
    H = realize(gf2, 2, h_set(gf2, 2))
    assert aggregate_stats(H).E_s2 == 0
    three = realize(default_field(3), 2, h_set(default_field(3), 2))
    assert aggregate_stats(three).E_s2 is None


def test_es2_bound_achieved_by_branching(gf2):
    # one level-class of a branching column of the saturated 8-run array
    from ssd.bounds import lb_es2
    D = construct_thm8(gf2, 3, 1)
    assert (D.N, D.m) == (4, 6)
    assert aggregate_stats(D).E_s2 == lb_es2(4, 6) == F(16, 5)


def test_projected_a2_char_agrees(ssd937):
    ch = char_a2_matrix(ssd937)
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            want = float(classify_pair(ssd937, i, j).a2)
            assert ch[i, j] == pytest.approx(want, abs=1e-9)


def test_projected_a2_char_fully_aliased_four_level(gf4):
    D = construct_thm6(gf4, 2, 2)
    pairs = fully_aliased_pairs(D)
    assert len(pairs) == 1
    assert char_a2_matrix(D)[pairs[0]] == pytest.approx(3.0, abs=1e-9)


def test_char_route_any_level_count():
    # Z_6 characters need no field: a fully aliased 6-level pair gives s - 1
    M = np.arange(6).reshape(6, 1) % 6
    D = Design(np.concatenate([M, M], axis=1), (6, 6))
    assert aggregate_stats(D).A2 == 5
    assert char_a2_matrix(D)[0, 1] == pytest.approx(5.0, abs=1e-9)


def char_values_match_histogram(D):
    """The character route's pair values, sorted, against the report's
    histogram expanded in ascending order."""
    ch = np.sort(char_a2_matrix(D)[np.triu_indices(D.m, 1)])
    hist = aggregate_stats(D, gwlp_jmax=1).histogram
    want = [float(v) for v, c in sorted(hist.items()) for _ in range(c)]
    assert ch.tolist() == pytest.approx(want, abs=1e-9)


def test_char_matrix_matches_pairwise(ssd937):
    char_values_match_histogram(ssd937)
    ch = char_a2_matrix(ssd937)
    for i in range(ssd937.m):
        for j in range(i + 1, ssd937.m):
            assert ch[i, j] == pytest.approx(float(oracle_a2(ssd937, i, j)),
                                             abs=1e-9)


def gwlp(D, jmax):
    return aggregate_stats(D, gwlp_jmax=jmax).gwlp


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


def test_gwlp_full_depth_and_jmax_range(ssd937):
    # jmax = m carries no budget: every term matches the contrast route
    mixed = Design(np.array([[0, 0, 0, 0], [0, 1, 1, 1], [0, 2, 2, 2],
                             [0, 0, 3, 3], [0, 1, 0, 4], [0, 2, 1, 5],
                             [1, 0, 2, 0], [1, 1, 3, 1], [1, 2, 0, 2],
                             [1, 0, 1, 3], [1, 1, 2, 4], [1, 2, 3, 5]]),
                   (2, 3, 4, 6))
    for D in (ssd937, mixed):
        pattern = gwlp(D, D.m)
        assert len(pattern) == D.m
        for j in range(1, D.m + 1):
            assert pattern[j - 1] == gwlp_bruteforce(D, j)
    with pytest.raises(ValueError, match="jmax"):
        gwlp(ssd937, 0)
    with pytest.raises(ValueError, match="jmax"):
        gwlp(ssd937, ssd937.m + 1)


def _krawtchouk_sum(x, m, s, j):
    return sum((-1)**k * (s - 1)**(j - k) * math.comb(x, k) * math.comb(m - x, j - k)
               for k in range(j + 1))


def test_krawtchouk_recurrence_matches_explicit_sum():
    big = 0
    for m, s in ((1, 2), (5, 3), (7, 6), (40, 64), (60, 4096)):
        for x in range(m + 1):
            row = krawtchouk(x, m, s, m + 3)
            assert len(row) == m + 1            # P_j = 0 for j > m
            assert row == [_krawtchouk_sum(x, m, s, j) for j in range(m + 1)]
            big = max(big, max(abs(v) for v in row))
        assert krawtchouk(1, m, s, 1) == [1, m * (s - 1) - s]
    assert big > 2**63


def test_gwlp_exact_a2_and_char_matrix_on_golden_mixed():
    # the golden mixed 9/3 design: A_1 = 0 and A_2 = the pairwise A2 exactly,
    # and the character-route matrix sums to the same A_2 within rounding
    from pathlib import Path
    from ssd.design_core import read_design
    D = read_design(Path(__file__).parent / "data" / "golden" / "mixed_9x3.ssd")
    assert len(set(D.levels)) == 2
    rep = aggregate_stats(D)
    pattern = rep.gwlp
    assert all(isinstance(a, F) for a in pattern)
    assert pattern[0] == 0 and pattern[1] == rep.A2
    char_values_match_histogram(D)
    assert float(np.triu(char_a2_matrix(D), 1).sum()) == pytest.approx(
        float(pattern[1]), abs=1e-9)


def test_strength_matches_is_oa(catalog_rows):
    def reference(D):
        t = 0
        while t < D.m and is_oa(D, t + 1):
            t += 1
        return t
    for _, D in catalog_rows:
        if D.m <= 12:
            assert strength(D) == reference(D)
    for s in (2, 3):
        H = realize(default_field(s), 3, h_set(default_field(s), 3))
        assert strength(H) == reference(H) == 2


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
    jmax = min(D.m, 4)
    rep = aggregate_stats(D, gwlp_jmax=jmax)
    for j in range(1, jmax + 1):
        assert rep.gwlp[j - 1] == gwlp_bruteforce(D, j)
    assert rep.gwlp[0] == 0
    assert rep.gwlp[1] == rep.A2


@settings(max_examples=25, deadline=None)
@given(any_level_designs())
def test_strength_matches_is_oa_on_mixed_designs(D):
    t = 0
    while t < D.m and is_oa(D, t + 1):
        t += 1
    assert strength(D) == t


def test_round_half_away():
    assert round_half_away(F(3, 200)) == 0.02
    assert round_half_away(F(25, 1000)) == 0.03
    assert round_half_away(F(-25, 1000)) == -0.03
    assert round_half_away(F(36, 11)) == 3.27
    assert round_half_away(F(1, 8)) == 0.13
    assert round_half_away(F(-1, 8)) == -0.13


def round_half_away_by_fractions(x):
    """The reference: scale by 100, add a half to the magnitude and floor,
    all in Fractions."""
    scaled = x * 100
    sign = -1 if scaled < 0 else 1
    return float(sign * ((abs(scaled) + F(1, 2)).__floor__()) / F(100))


# any rational, or an exact half at 2 places, of either sign
rationals = (st.fractions(max_denominator=10**12)
             | st.integers(-10**9, 10**9).map(lambda k: F(2 * k + 1, 200)))


@settings(max_examples=300, deadline=None)
@given(rationals)
def test_integer_rounding_matches_the_fraction_formula(x):
    assert round_half_away(x) == round_half_away_by_fractions(x)


@st.composite
def reported_designs(draw):
    """(D, gwlp_jmax): random balanced designs of mixed level profiles, or
    of two levels only, so that E(s^2) and its bound are reported, with a
    wordlength depth anywhere in 1..m."""
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.booleans()):
        N = draw(st.sampled_from([12, 24]))
        choices = [2, 3, 4, 6, 12]
    else:
        N = draw(st.sampled_from([4, 8, 12, 16]))
        choices = [2]
    m = draw(st.integers(2, 14))
    levels = draw(st.lists(st.sampled_from(choices), min_size=m, max_size=m))
    cols = []
    for s in levels:
        cols.append([v for v in range(s) for _ in range(N // s)])
        rnd.shuffle(cols[-1])
    return Design(np.array(cols).T, levels), draw(st.integers(1, m))


def json_rational(x, want):
    """A decoded {"num", "den"} object is the reduced form of want."""
    if want is None:
        return x is None
    return (x["num"], x["den"]) == (want.numerator, want.denominator)


@settings(max_examples=60, deadline=None)
@given(reported_designs())
def test_json_report_is_the_reference_encoding(case):
    """report_to_json writes the text json.dumps(..., indent=2) gives for
    the object it decodes to, and every decoded rational is the report's
    own Fraction, reduced."""
    from ssd.report import build_report, report_to_json
    D, jmax = case
    rep, cert = report = build_report(D, gwlp_jmax=jmax)
    text = report_to_json(report)
    out = json.loads(text)
    assert text == json.dumps(out, indent=2) + "\n"
    for key in ("A2", "ave_chi2", "max_chi2", "ave_f", "max_f", "E_d2",
                "max_d2", "E_s2"):
        assert json_rational(out[key], getattr(rep, key)), key
    for key in ("theorem1", "theorem1_raw", "lemma2", "theorem10", "eq1_es2"):
        assert json_rational(out["bounds"][key], getattr(cert, key)), key
    hist = out["projected_A2_histogram"]
    assert [h["count"] for h in hist] == list(rep.histogram.values())
    assert all(json_rational(h["value"], v) for h, v in zip(hist, rep.histogram))
    assert out["gwlp"] == [float(a) for a in rep.gwlp]
    assert len(out["gwlp"]) == jmax
    assert (out["ave_f_2dp"], out["ave_chi2_2dp"]) == (
        round_half_away(rep.ave_f), round_half_away(rep.ave_chi2))
    assert (out["E_s2"] is None) == (set(D.levels) != {2})
    assert out["bounds"]["achieved_es2"] == cert.achieved_es2
    assert out["achieves_theorem1"] == cert.achieved_theorem1


def test_report_builds_each_one_hot_once(gf3, gf9, call_counter):
    """One report calls the kernel entry once, which builds one one-hot
    matrix on either route and runs one pair route and one coincidence
    pass.  It extracts the pair numerators once and works out the overall
    A2 once, by the pairwise sum, checked by the one wordlength pattern's
    A_2 at either level profile.  The pattern and the coincidence totals
    both read the one histogram."""
    from ssd import design_core
    from ssd.design_core import (_gram_tiles, cells_sparse, level_groups,
                                 replace_column)
    from ssd.report import build_report

    calls, count = call_counter
    count(design_core, "_one_hot", "_cell_count_sums", "_gram_tile_sums",
          "_joint_coincidences")
    count(criteria, "design_sums", "_pair_numerators", "_gwlp")
    equal = construct_thm6(gf3, 2, 2)
    # k = 3: at k = 2 the two routes take about equal time and the rule
    # counts cells; 3-level columns in the middle, so the levels are sorted
    mixed = replace_column(construct_thm6(gf9, 2, 3), 5,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    for D, route in ((equal, "_cell_count_sums"), (mixed, "_gram_tile_sums")):
        tiles = _gram_tiles(level_groups(D), D.N)
        assert cells_sparse(D, tiles) == (route == "_cell_count_sums")
        calls.clear()
        build_report(D)
        assert calls == Counter({"_one_hot": 1, route: 1,
                                 "_joint_coincidences": 1, "design_sums": 1,
                                 "_pair_numerators": 1, "_gwlp": 1})
    # an out-of-range depth is rejected before any pass
    calls.clear()
    for jmax in (0, equal.m + 1):
        with pytest.raises(ValueError, match=r"^jmax must lie in 1\.\.m$"):
            build_report(equal, gwlp_jmax=jmax)
    assert calls == Counter()


def test_strength_reads_one_histogram(gf3, gf9, call_counter):
    """strength reads one coincidence histogram, from one one-hot matrix,
    and runs no pair route, with equal and with mixed levels."""
    from ssd import design_core
    calls, count = call_counter
    count(criteria, "design_sums", "joint_coincidences")
    count(design_core, "_one_hot", "_cell_count_sums", "_gram_tile_sums",
          "_joint_coincidences")
    mixed = replace_column(construct_thm6(gf9, 2, 2), 3,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    # strength 2 takes the prefixes of length 1, 2 and 4
    for D, t in ((realize(gf3, 3, h_set(gf3, 3)), 2), (mixed, 1)):
        calls.clear()
        assert strength(D) == t
        assert calls == Counter({"joint_coincidences": 1, "_one_hot": 1,
                                 "_joint_coincidences": 1})


def designs_built(*calls):
    """How many Designs each call constructs, in order."""
    built = []
    init = Design.__init__

    def counting(self, *args, **kwargs):
        built[-1] += 1
        init(self, *args, **kwargs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Design, "__init__", counting)
        for call in calls:
            built.append(0)
            call()
    return built


def check_evaluation_builds_no_design(D):
    """The kernel entries, a report and strength read a checked design
    whose levels do not ascend without building a level-sorted Design."""
    from ssd.design_core import joint_coincidences
    assert list(D.levels) != sorted(D.levels)
    assert designs_built(lambda: design_sums(D),
                         lambda: joint_coincidences(D),
                         lambda: aggregate_stats(D),
                         lambda: strength(D)) == [0, 0, 0, 0]


def test_scrambled_mixed_evaluation_builds_no_design(gf3, gf9):
    """The 81 x 52 9/3-level design (thm6 over GF(9), n = 2, k = 4, with
    the first column of each Q_h block replaced by OA(9, 4, 3, 2)), its
    rows, columns and each column's symbols permuted."""
    D = construct_thm6(gf9, 2, 4)
    table = realize(gf3, 2, h_set(gf3, 2)).matrix
    for col in (30, 20, 10, 0):
        D = replace_column(D, col, table)
    rng = np.random.default_rng(7)
    cols = rng.permutation(D.m)
    levels = [D.levels[c] for c in cols]
    X = D.matrix[rng.permutation(D.N)][:, cols]
    X = np.column_stack([rng.permutation(s)[x] for s, x in zip(levels, X.T)])
    check_evaluation_builds_no_design(Design(X, levels))


@st.composite
def unsorted_designs(draw):
    """Random balanced designs whose levels, drawn from {2, 3, 4, 6, 12},
    do not ascend."""
    N = draw(st.sampled_from([12, 24]))
    levels = draw(st.lists(st.sampled_from([2, 3, 4, 6, 12]), min_size=2,
                           max_size=40).filter(lambda lv: lv != sorted(lv)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [rng.permutation(np.repeat(np.arange(s), N // s)) for s in levels]
    return Design(np.column_stack(cols), levels)


@settings(max_examples=20, deadline=None)
@given(unsorted_designs())
def test_drawn_profile_evaluation_builds_no_design(D):
    check_evaluation_builds_no_design(D)


@st.composite
def permuted_designs(draw):
    """(D, a column-permuted copy of D): random balanced designs with
    unsorted levels in {2, 3, 4, 6, 12}, or a 9/3-level design with its
    3-level columns in the middle, and either pair route."""
    rnd = draw(st.randoms(use_true_random=False))
    if draw(st.integers(0, 4)):
        N = draw(st.sampled_from([12, 24]))
        m = draw(st.integers(2, 72))
        levels = draw(st.lists(st.sampled_from([2, 3, 4, 6, 12]),
                               min_size=m, max_size=m))
        cols = []
        for s in levels:
            cols.append([v for v in range(s) for _ in range(N // s)])
            rnd.shuffle(cols[-1])
        D = Design(np.array(cols).T, levels)
    else:
        gf3, gf9 = default_field(3), default_field(9)
        D = replace_column(construct_thm6(gf9, 2, 3), 5,
                           realize(gf3, 2, h_set(gf3, 2)).matrix)
    order = list(range(D.m))
    rnd.shuffle(order)
    return D, select_columns(D, order), draw(st.booleans())


@settings(max_examples=30, deadline=None)
@given(permuted_designs())
def test_column_order_does_not_change_a_report(case):
    """Every reported value is a multiset statistic over column pairs or
    row pairs, so permuting the columns changes only the levels' order,
    on either pair route."""
    from ssd import design_core
    from ssd.report import build_report, report_to_json
    D, E, sparse = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(design_core, "cells_sparse", lambda D, tiles: sparse)
        want, got = (json.loads(report_to_json(build_report(X)))
                     for X in (D, E))
    assert want.pop("levels") == list(D.levels)
    assert got.pop("levels") == list(E.levels)
    assert got == want
