"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the verified values (run with -v for one line per criterion, -s to see
the printed details).  Exact rational equality everywhere a catalog value is
checked; floating tolerances only where stated (1e-9 character route, 1e-6
wordlength route, +/-0.005 on the two-decimal comparison-table entries).
"""

import itertools
import time
from fractions import Fraction as F

import numpy as np

from ssd.bounds import certify, lb_theorem1, lb_theorem10
from ssd.constructions import (CATALOG_SPECS, catalog, construct_example3,
                               construct_thm4, construct_thm6, construct_thm8,
                               verify_appendix, verify_design)
from ssd.criteria import aggregate_stats
from ssd.design_core import (realize, remove_fully_aliased, replace_column,
                             select_columns)
from ssd.gf import Field, default_field
from ssd.oracle import (char_a2_matrix, classify_pair, exhaustive_min_a2,
                        fully_aliased_pairs, gwlp_bruteforce,
                        pair_a2_from_table)
from ssd.poly_labels import (LinearForm, QuadraticLabel, eval_labels,
                             h_set, q1, unit_form)


def _ok(num, text):
    print(f"[criterion {num:2d}] PASS - {text}")


def test_c01_nine_run_seven_column_family(gf3):
    D = construct_thm4(gf3, 2)
    assert (D.N, D.m) == (9, 7)
    rep = aggregate_stats(D)
    assert rep.A2 == 6
    kinds = [classify_pair(D, i, j)
             for i in range(7) for j in range(i + 1, 7)]
    assert not [k for k in kinds if k.kind == "fully_aliased"]
    semi = [k for k in kinds if k.kind == "semi_orthogonal"]
    assert len(semi) == 9 and all(k.a2 == F(2, 3) for k in semi)
    cert = certify(rep)
    assert cert.theorem1 == 6 and cert.achieved_theorem1
    _ok(1, "9-run 7-column design: A2 = 6, nine pairs at 2/3, bound achieved")


def test_c02_sixteen_column_family_and_quadratic_subdesign(gf3):
    D = construct_thm6(gf3, 2, 4)
    rep = aggregate_stats(D)
    assert rep.A2 == 48
    assert rep.histogram == {F(0): 30, F(4, 9): 54, F(2, 3): 36}
    # per-column dependency degrees, split by linear/quadratic provenance
    linear_cols = [i for i, lab in enumerate(D.labels)
                   if isinstance(lab, LinearForm)]
    quad_cols = [i for i in range(D.m) if i not in linear_cols]
    for i in range(D.m):
        vals = [classify_pair(D, i, j).a2 for j in range(D.m) if j != i]
        partial = sum(v == F(4, 9) for v in vals)
        semi = sum(v == F(2, 3) for v in vals)
        if i in linear_cols:
            assert (partial, semi) == (0, 9)
        else:
            assert (partial, semi) == (9, 3)
    quad = aggregate_stats(select_columns(D, quad_cols))
    assert quad.A2 == 24
    assert quad.histogram == {F(0): 12, F(4, 9): 54}
    _ok(2, "16-column family: A2 = 48 {4/9:54, 2/3:36, 0:30}; quadratic "
           "12-column subdesign: A2 = 24 {4/9:54}; aliasing degrees match")


def test_c03_full_catalog_reproduction():
    t0 = time.monotonic()
    results = [verify_design(recipe, D) for recipe, D in catalog()]
    elapsed = time.monotonic() - t0
    assert len(results) == 31
    for row in results:
        assert row.ok, f"{row.row_id}: {row.message}"
    big = {(r.expected_N, r.expected_m) for r in CATALOG_SPECS}
    assert {(27, 169), (64, 231), (25, 36), (75, 30)} <= big
    assert elapsed < 60
    _ok(3, f"all 31 catalog rows verified exactly in {elapsed:.1f}s")


def test_c04_four_level_dealiasing(gf4):
    for n, k, pairs, m, a2 in ((2, 5, 10, 15, 45), (3, 21, 210, 231, 3465)):
        before = construct_thm6(gf4, n, k)
        assert len(fully_aliased_pairs(before)) == pairs
        after = remove_fully_aliased(before)
        assert after.m == m
        cert = certify(aggregate_stats(after, gwlp_jmax=1))
        assert cert.a2 == a2 == lb_theorem1(4**n, m, 4)
        assert cert.achieved_theorem1
    _ok(4, "four-level de-aliasing: 10 pairs -> 15 cols A2 = 45; "
           "210 pairs -> 231 cols A2 = 3465; both bounds achieved")


def test_c05_eighteen_run_branch_types(gf3):
    expected = {1: (54, 0, 12), 2: (36, 27, 3), 3: (42, 18, 6)}
    for lab in q1(gf3, 3):
        D, typ = construct_example3(gf3, lab)
        hist = aggregate_stats(D).histogram
        got = (hist.get(F(0), 0), hist.get(F(1, 6), 0), hist.get(F(1, 2), 0))
        assert got == expected[typ]
    _ok(5, "18-run branch types reproduce (54,0,12), (36,27,3), (42,18,6) "
           "over values (0, 1/6, 1/2)")


def test_c06_bundled_reference_tables():
    for which in (6, 7, 8):
        row = verify_appendix(which)
        assert row.ok, row.message
    _ok(6, "bundled 9-, 16- and 25-run tables: A2 = 48/45/360 with printed "
           "frequencies; sub-selections give A2 = 24 and 240")


HARD_ROWS = [  # (s, n, k, theorem, printed ave_f, printed max_f)
    (3, 2, 4, "thm6", F(360, 100), 6),
    (3, 2, 4, "thm7", F(327, 100), 4),
    (3, 3, 2, "thm6", F(366, 100), 18),
    (3, 3, 13, "thm7", F(697, 100), 12),
    (3, 3, 13, "thm6", F(653, 100), 18),
    (5, 2, 6, "thm7", F(1207, 100), 14),
    (5, 2, 6, "thm6", F(1310, 100), 20),
    (4, 2, 5, "thm6-dealias", F(686, 100), 16),
]

SOFT_ROWS = [  # first-m-column prefixes: the column choice is a free
    # parameter, so these are reported against the printed value, not asserted
    (3, 2, 4, "thm6", 8, 2.57), (3, 2, 4, "thm7", 8, 3.00),
    (3, 3, 13, "thm6", 39, 4.81), (3, 3, 13, "thm7", 39, 4.81),
    (5, 2, 6, "thm6", 12, 8.33), (5, 2, 6, "thm7", 18, 10.98),
    (4, 2, 5, "thm6-dealias", 10, 6.04),
]


def test_c07_comparison_table_rows(catalog_rows):
    built = {(r.theorem, r.s, r.n, r.k): D for r, D in catalog_rows}
    for s, n, k, thm, avef, maxf in HARD_ROWS:
        D = built[(thm, s, n, k)]
        rep = aggregate_stats(D, gwlp_jmax=1)
        assert abs(rep.ave_f - avef) <= F(5, 1000), (s, n, k, thm)
        assert rep.max_f == maxf, (s, n, k, thm)
    for s, n, k, thm, m, printed in SOFT_ROWS:
        D = select_columns(built[(thm, s, n, k)], range(m))
        rep = aggregate_stats(D, gwlp_jmax=1)
        print(f"    soft row s={s} N={D.N} m={m} [{thm}]: "
              f"ave(f) = {float(rep.ave_f):.2f} (printed {printed:.2f}), "
              f"max(f) = {rep.max_f}; reported only, the column prefix "
              "is a free choice")
    _ok(7, "8 full-width comparison rows match printed ave(f) within 0.005 "
           "and max(f) exactly; prefix rows reported")


def test_c08_mixed_levels_by_replacement(gf9, gf3):
    t0 = time.monotonic()
    D = construct_thm6(gf9, 2, 10)
    assert (D.N, D.m) == (81, 100)
    rep = aggregate_stats(D)
    assert rep.A2 == 3600 == lb_theorem10(81, [9] * 100)
    assert max(rep.histogram) == F(8, 9)
    table = realize(gf3, 2, h_set(gf3, 2)).matrix
    for i in (1, 50, 99):
        mixed = D
        for k in range(i):
            mixed = replace_column(mixed, 4 * k, table)
        assert mixed.m == 100 + 3 * i
        rep = aggregate_stats(mixed)
        assert rep.A2 == 3600
        assert max(rep.histogram) <= F(8, 9)
        cert = certify(rep)
        assert cert.theorem10 == 3600 and cert.achieved_theorem10
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    _ok(8, f"9-level 100-column design: A2 = 3600 = profile bound; invariant "
           f"under 1/50/99 column replacements (max projected <= 8/9) "
           f"in {elapsed:.1f}s")


CHAR_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def test_c09_character_property_suite():
    for s in CHAR_ORDERS:
        f = default_field(s)
        els = list(f.elements())
        # full-field sums
        for a in els:
            total = sum(f.char(f.mul(a, x)) for x in els)
            assert abs(total - (s if a == 0 else 0)) < 1e-9
        # orthonormality of the nonzero character family
        for u, v in itertools.product(f.units(), repeat=2):
            total = sum(f.char(f.mul(u, x)) * f.char(f.mul(v, x)).conjugate()
                        for x in els)
            assert abs(total - (s if u == v else 0)) < 1e-9
        if s % 2:  # odd: quadratic character sums have modulus sqrt(s)
            for a in f.units():
                for b in els:
                    for c in els:
                        total = sum(f.char(f.add(f.add(f.mul(a, f.mul(x, x)),
                                                       f.mul(b, x)), c))
                                    for x in els)
                        assert abs(abs(total) ** 2 - s) < 1e-9
        else:      # even: the shifted sum is s exactly when a = b^2
            for a in els:
                for b in els:
                    total = sum(f.char(f.add(f.mul(a, f.mul(x, x)),
                                             f.mul(b, x))) for x in els)
                    expect = s if a == f.mul(b, b) else 0
                    assert abs(total - expect) < 1e-9
        # subset sums: sum over nonzero u of |sum_{x in G} chi(ux)|^2
        for bits in range(2 ** s):
            G = [x for x in els if bits >> x & 1]
            k = len(G)
            total = sum(abs(sum(f.char(f.mul(u, x)) for x in G)) ** 2
                        for u in f.units())
            assert abs(total - (s - k) * k) < 1e-9
    _ok(9, f"character identities exhaustive over orders {CHAR_ORDERS} "
           "(1e-9)")


ALT_FIELDS = {4: Field(4, (1, 1, 1)),      # the unique quadratic modulus
              9: Field(9, (1, 0, 1))}      # x^2 + 1 instead of x^2+2x+2


def test_c10_dual_route_equivalence(catalog_rows):
    for rows in (catalog_rows, catalog(ALT_FIELDS)):
        for recipe, D in rows:
            ch = char_a2_matrix(D)
            for i in range(D.m):
                for j in range(i + 1, D.m):
                    exact = classify_pair(D, i, j).a2
                    assert abs(ch[i, j] - float(exact)) < 1e-9
            rep = aggregate_stats(D, gwlp_jmax=2)
            assert abs(rep.gwlp[1] - float(rep.A2)) < 1e-6
    # a 9-level design built under the alternate modulus has other symbols
    # but the same wordlength A2
    nines = [construct_thm4(f, 2) for f in (default_field(9), ALT_FIELDS[9])]
    assert (nines[0].matrix != nines[1].matrix).any()
    for nine in nines:
        rep = aggregate_stats(nine, gwlp_jmax=2)
        assert abs(rep.gwlp[1] - float(rep.A2)) < 1e-6
    _ok(10, "character route = counting route (1e-9/pair) and wordlength "
            "A2 = overall A2 (1e-6) on all 31 designs, built under default "
            "and alternate moduli")


def test_c11_oracle_tightness(gf3):
    r2 = exhaustive_min_a2(6, 3, 2, stop_at_bound=False)
    assert r2.exhaustive and r2.best_a2 == F(1, 2) == lb_theorem1(6, 2, 3)
    r3 = exhaustive_min_a2(6, 3, 3, stop_at_bound=False)
    assert r3.exhaustive and r3.best_a2 == F(3, 2) == lb_theorem1(6, 3, 3)
    for D in (construct_thm8(gf3, 2, 2), construct_thm4(gf3, 2)):
        pattern = aggregate_stats(D).gwlp
        for j in (1, 2, 3):
            assert gwlp_bruteforce(D, j) == pattern[j - 1]
    _ok(11, "exhaustive minima 1/2 and 3/2 equal the bounds at (6,3,2) and "
            "(6,3,3); contrast-based wordlengths match the character route")


def test_c12_pairwise_dependency_predicates():
    # headline values; the full enumerations live in test_lemma_predicates
    f4 = default_field(4)
    x1, x2 = unit_form(2, 0), unit_form(2, 1)
    for a1, a2 in itertools.product(f4.elements(), repeat=2):
        c1, c2 = eval_labels(f4, [QuadraticLabel(x1, a1, x2),
                                  QuadraticLabel(x2, a2, x1)], 2).T
        tab = np.bincount(c1 * 4 + c2, minlength=16).reshape(4, 4)
        got = pair_a2_from_table(tab.tolist(), 16)
        if a1 == a2 == 0:
            assert got == 3
        elif a1 and a2 and a2 != f4.mul(a1, a1):
            assert got == 1
        else:
            assert got == 0
    # branched-fraction value (s - k)/(k s) for odd s with distinct X2 scales
    for s in (3, 5):
        f = default_field(s)
        for k in range(1, s):
            for G in itertools.combinations(range(s), k):
                pts = []
                for g in sorted(G):
                    for v1 in range(s):
                        v2 = f.sub(g, f.mul(v1, v1))
                        for v3 in range(s):
                            pts.append((v1, v2, v3))
                pts = np.array(pts)
                lab1 = QuadraticLabel(unit_form(3, 0), 1,
                                      LinearForm((0, 1, 1)))
                lab2 = QuadraticLabel(unit_form(3, 0), 2,
                                      LinearForm((0, 2, 1)))
                rows = pts @ s ** np.arange(2, -1, -1)
                c1, c2 = eval_labels(f, [lab1, lab2], 3, rows).T
                tab = np.bincount(c1 * s + c2, minlength=s * s).reshape(s, s)
                got = pair_a2_from_table(tab.tolist(), len(pts))
                assert got == F(s - k, k * s), (s, G)
    _ok(12, "dependency predicates verified (4-level trichotomy in its "
            "consistent form; branched value (s-k)/(ks)); deep suites in "
            "test_lemma_predicates")


def test_extra_recorded_observations(gf3, capsys):
    # shift identity of the search minima, observational
    from ssd.oracle import periodicity_spot_check
    rows = periodicity_spot_check(9, 3, 4, [1, 2])
    for row in rows:
        print(f"    min-A2 shift check N=9 s=3: a2({row['m']}) = "
              f"{row['a2_m']}, a2({row['m'] + 4}) = {row['a2_m_plus_t']}, "
              f"shift {row['expected_shift']}, holds = {row['holds']}")
    assert all(r["values_known"] for r in rows)
    # the two saturated families branch differently at n = 3 (structural
    # difference witness)
    from ssd.constructions import construct_thm8 as t8, construct_thm9 as t9
    h_hist = aggregate_stats(t8(gf3, 3, 2)).histogram
    q_hist = aggregate_stats(t9(gf3, 3, 2)).histogram
    assert h_hist != q_hist
    _ok(0, "recorded: shift identity observed at N=9; the two saturated "
           "families yield different fraction histograms at n=3")
