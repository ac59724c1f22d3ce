"""Turnkey builders for the supersaturated design families, plus the shipped
catalog of three-, four- and five-level designs with their expected exact
aliasing histograms, and the verifier that recomputes every row.  The
catalog is the only table of expected values: each bundled reference file,
and its quadratic-only sub-selection, is verified as the catalog row it
reproduces.

Builder summary (s = level count, runs over F_s^n):

  thm4   H + quadratic companions of X1; N = s^n, m = 2(s^n-1)/(s-1) - 1,
         overall A2 = s^n - s, column X1 orthogonal to everything else.
  thm6   column juxtaposition of k full companion arrays Q_h;
         m = k(s^n-1)/(s-1), overall A2 = C(k,2)(s^n - 1).
  thm7   (s odd) juxtaposition of the quadratic-only parts Q_h*;
         m = k(s^n-s)/(s-1), overall A2 = C(k,2)(s^n - 2s + 1), no pair
         fully aliased.
  thm8   row juxtaposition of k level-classes of a branching column of H;
         N = k s^(n-1), m = (s^n-s)/(s-1), A2 = (s^n-s)(s-k)/(2k).
  thm9   same, branching on the quadratic column X1^2 + X2 of Q1.

For s = 4 the thm6 juxtaposition contains C(k,2) fully aliased pairs; the
catalog ships those designs de-aliased (drop one column of each pair).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .design_core import (MAX_RUNS, Design, branch_fraction,
                          check_fraction_runs, level_profile, read_design,
                          realize, remove_fully_aliased, select_columns)
from .gf import Field, default_field, point_count
from .poly_labels import (LinearForm, QuadraticLabel, eval_labels, h_set,
                          label_str, q1, q1_star, qh, qh_star, unit_form)


def construct_thm4(field: Field, n: int) -> Design:
    """H(X1..Xn) next to the quadratic companions of X1."""
    if n < 2:
        raise ValueError("needs at least two variables")
    point_count(field.order, n, MAX_RUNS)
    labels = h_set(field, n) + q1_star(field, n)
    return realize(field, n, labels)


def _juxtapose_companions(field: Field, n: int, k: int, hs, family) -> Design:
    """Column juxtaposition of family(h) for k distinct forms h of H.

    hs defaults to the first k forms of H in canonical order.
    """
    point_count(field.order, n, MAX_RUNS)
    if n < 2:
        raise ValueError("needs at least two variables")
    t = (field.order**n - 1) // (field.order - 1)
    if not 1 < k <= t:
        raise ValueError(f"k must lie in 2..{t}")
    hs = list(hs) if hs is not None else h_set(field, n)[:k]
    for h in hs:
        if not isinstance(h, LinearForm):
            raise ValueError("the chosen forms must be linear, got "
                             f"{label_str(field, h)!r}")
    if len(set(hs)) != len(hs):
        raise ValueError("the chosen forms must be distinct")
    if len(hs) != k:
        raise ValueError(f"expected {k} forms, got {len(hs)}")
    return realize(field, n, [lab for h in hs for lab in family(field, h, n)])


def construct_thm6(field: Field, n: int, k: int, hs=None) -> Design:
    """Column juxtaposition of k companion saturated arrays Q_h."""
    return _juxtapose_companions(field, n, k, hs, qh)


def construct_thm7(field: Field, n: int, k: int, hs=None) -> Design:
    """Juxtaposition of the quadratic-only parts Q_h*; s must be odd."""
    if field.order % 2 == 0:
        raise ValueError("defined for odd level counts only")
    return _juxtapose_companions(field, n, k, hs, qh_star)


def _kept_levels(field: Field, n: int, k: int, g_levels) -> list[int]:
    """The k kept level classes of a thm8/thm9 branch, checked up front.

    Each class of the branch column holds s^(n-1) points, so the run limit
    is checked here, before any label set is built.
    """
    s = field.order
    if not 1 <= k < s:
        raise ValueError(f"the number of kept level classes must lie in 1..{s - 1}")
    g = list(g_levels) if g_levels is not None else list(range(k))
    if len(g) != k:
        raise ValueError("the kept level set must have exactly k values")
    check_fraction_runs(k * s ** (n - 1))
    return g


def construct_thm8(field: Field, n: int, k: int, branch_h: LinearForm | None = None,
                   g_levels=None) -> Design:
    """Row juxtaposition of k level-classes of a branching column of H."""
    g = _kept_levels(field, n, k, g_levels)
    labels = h_set(field, n)
    branch = branch_h if branch_h is not None else labels[0]
    return branch_fraction(field, n, labels, branch, g)


def construct_thm9(field: Field, n: int, k: int, g_levels=None) -> Design:
    """Like thm8, but branching on the quadratic column X1^2 + X2 of Q1."""
    g = _kept_levels(field, n, k, g_levels)
    labels = q1(field, n)
    x1 = unit_form(n, 0)
    x2 = unit_form(n, 1)
    branch = QuadraticLabel(x1, 0, x2)
    return branch_fraction(field, n, labels, branch, g)


def example3_branch_type(branch_label) -> int:
    """Classify a branching column of Q1(X1, X2, X3) into the three 18-run types."""
    if isinstance(branch_label, LinearForm):
        return 1
    g = branch_label.g
    # type 2 when the linear tail is exactly X2, type 3 when it reaches X3
    return 2 if g == LinearForm((0, 1, 0)) else 3


def construct_example3(field: Field, branch_label) -> tuple[Design, int]:
    """Branch Q1(X1, X2, X3) on any of its 13 columns, keeping two classes.

    Returns the 18-run, 12-column design together with its type (1, 2 or 3);
    the three types have aliasing histograms (54,0,12), (36,27,3), (42,18,6)
    over the projected A2 values (0, 1/6, 1/2).  The branching label is
    matched by column value, so any equivalent spelling works.
    """
    if field.order != 3:
        raise ValueError("this family lives over GF(3)")
    labels = q1(field, 3)
    cols = eval_labels(field, [*labels, branch_label], 3)
    hit = np.flatnonzero((cols[:, :-1] == cols[:, -1:]).all(axis=0))
    if not hit.size:
        raise ValueError("the branching label must be one of the 13 columns")
    canonical = labels[hit[0]]
    design = branch_fraction(field, 3, labels, canonical, (0, 1))
    return design, example3_branch_type(canonical)


# -- the shipped catalog -----------------------------------------------------------

@dataclass(frozen=True)
class Recipe:
    theorem: str                 # "thm4" | "thm6" | "thm6-dealias" | "thm7" | "thm8" | "thm9"
    s: int
    n: int
    k: int | None
    expected_N: int
    expected_m: int
    expected_hist: dict          # nonzero A2 -> count

    @property
    def row_id(self) -> str:
        bits = [f"s{self.s}", f"N{self.expected_N}", f"m{self.expected_m}",
                self.theorem]
        if self.k is not None:
            bits.append(f"k{self.k}")
        return "/".join(bits)

    @property
    def expected_a2(self) -> Fraction:
        return sum((v * c for v, c in self.expected_hist.items()), Fraction(0))


_F = Fraction


CATALOG_SPECS: tuple[Recipe, ...] = (
    # three levels
    Recipe("thm8", 3, 2, 2, 6, 3, {_F(1, 2): 3}),
    Recipe("thm4", 3, 2, None, 9, 7, {_F(2, 3): 9}),
    Recipe("thm7", 3, 2, 4, 9, 12, {_F(4, 9): 54}),
    Recipe("thm6", 3, 2, 4, 9, 16, {_F(4, 9): 54, _F(2, 3): 36}),
    Recipe("thm8", 3, 3, 2, 18, 12, {_F(1, 2): 12}),
    Recipe("thm9", 3, 3, 2, 18, 12, {_F(1, 6): 27, _F(1, 2): 3}),
    Recipe("thm4", 3, 3, None, 27, 25, {_F(2, 3): 36}),
    Recipe("thm6", 3, 3, 2, 27, 26, {_F(2, 9): 81, _F(4, 9): 9, _F(2, 3): 6}),
    Recipe("thm7", 3, 3, 13, 27, 156, {_F(2, 9): 6318, _F(4, 9): 702}),
    Recipe("thm6", 3, 3, 13, 27, 169,
           {_F(2, 9): 6318, _F(4, 9): 702, _F(2, 3): 468}),
    Recipe("thm8", 3, 4, 2, 54, 39, {_F(1, 2): 39}),
    Recipe("thm9", 3, 4, 2, 54, 39, {_F(1, 6): 108, _F(1, 2): 3}),
    # four levels
    Recipe("thm8", 4, 2, 2, 8, 4, {_F(1): 6}),
    Recipe("thm8", 4, 2, 3, 12, 4, {_F(1, 3): 6}),
    Recipe("thm4", 4, 2, None, 16, 9, {_F(1): 12}),
    Recipe("thm6-dealias", 4, 2, 5, 16, 15, {_F(1): 45}),
    Recipe("thm8", 4, 3, 2, 32, 20, {_F(1): 30}),
    Recipe("thm8", 4, 3, 3, 48, 20, {_F(1, 3): 30}),
    Recipe("thm9", 4, 3, 3, 48, 20, {_F(1, 9): 72, _F(1, 3): 6}),
    Recipe("thm4", 4, 3, None, 64, 41, {_F(1): 60}),
    Recipe("thm6-dealias", 4, 3, 21, 64, 231, {_F(1): 3465}),
    # five levels
    Recipe("thm8", 5, 2, 2, 10, 5, {_F(3, 2): 10}),
    Recipe("thm8", 5, 2, 3, 15, 5, {_F(2, 3): 10}),
    Recipe("thm8", 5, 2, 4, 20, 5, {_F(1, 4): 10}),
    Recipe("thm4", 5, 2, None, 25, 11, {_F(4, 5): 25}),
    Recipe("thm7", 5, 2, 6, 25, 30, {_F(16, 25): 375}),
    Recipe("thm6", 5, 2, 6, 25, 36, {_F(16, 25): 375, _F(4, 5): 150}),
    Recipe("thm8", 5, 3, 2, 50, 30, {_F(3, 2): 60}),
    Recipe("thm9", 5, 3, 2, 50, 30, {_F(3, 10): 250, _F(3, 2): 10}),
    Recipe("thm8", 5, 3, 3, 75, 30, {_F(2, 3): 60}),
    Recipe("thm9", 5, 3, 3, 75, 30, {_F(2, 15): 250, _F(2, 3): 10}),
)


def build_recipe(recipe: Recipe, field: Field | None = None) -> Design:
    f = field if field is not None else default_field(recipe.s)
    if recipe.theorem == "thm4":
        return construct_thm4(f, recipe.n)
    if recipe.theorem == "thm6":
        return construct_thm6(f, recipe.n, recipe.k)
    if recipe.theorem == "thm6-dealias":
        return remove_fully_aliased(construct_thm6(f, recipe.n, recipe.k))
    if recipe.theorem == "thm7":
        return construct_thm7(f, recipe.n, recipe.k)
    if recipe.theorem == "thm8":
        return construct_thm8(f, recipe.n, recipe.k)
    if recipe.theorem == "thm9":
        return construct_thm9(f, recipe.n, recipe.k)
    raise ValueError(f"unknown construction {recipe.theorem!r}")


def catalog(field_map=None) -> list[tuple[Recipe, Design]]:
    """Build every catalog design (31 rows across the three level counts)."""
    fields = field_map or {}
    return [(r, build_recipe(r, fields.get(r.s))) for r in CATALOG_SPECS]


@dataclass(frozen=True)
class RowResult:
    row_id: str
    ok: bool
    message: str


def verify_design(recipe: Recipe, D: Design) -> RowResult:
    """Recompute one catalog row and compare every expected invariant
    exactly, all read from the design's one report.

    Every column has recipe.s levels and is balanced, so a pair's
    projected A2 is at most s - 1, with equality exactly when one column
    is a relabelling of the other: the design has a fully aliased pair
    exactly when s - 1 is a value of its histogram."""
    from . import report    # here, so that construct does not load it
    problems = []
    if D.N != recipe.expected_N or D.m != recipe.expected_m:
        problems.append(f"shape {D.N}x{D.m} != "
                        f"{recipe.expected_N}x{recipe.expected_m}")
    elif set(D.levels) != {recipe.s}:
        problems.append(f"levels {level_profile(D.levels)} != "
                        f"{recipe.s}^{recipe.expected_m}")
    else:
        rep, cert = report.build_report(D)
        nonzero = {v: c for v, c in rep.histogram.items() if v != 0}
        if nonzero != recipe.expected_hist:
            problems.append(f"histogram mismatch: {_fmt_hist(nonzero)} != "
                            f"{_fmt_hist(recipe.expected_hist)}")
        if cert.a2 != recipe.expected_a2:
            problems.append(f"A2 {cert.a2} != {recipe.expected_a2}")
        if rep.histogram.get(recipe.s - 1):
            problems.append("contains fully aliased pairs")
        if not cert.achieved_theorem1:
            problems.append(
                f"bound not achieved: A2 {cert.a2} vs {cert.theorem1}")
        if cert.coincidence_spread > 1:
            problems.append(
                f"coincidence spread {cert.coincidence_spread} > 1")
    message = "; ".join(problems) or (f"A2 = {recipe.expected_a2}, "
                                      f"{_fmt_hist(recipe.expected_hist)}")
    return RowResult(recipe.row_id, not problems, message)


def _fmt_hist(hist: dict) -> str:
    parts = [f"{v}: {c}" for v, c in sorted(hist.items())]
    return "{" + ", ".join(parts) + "}"


# -- bundled reference tables -------------------------------------------------------

# table number -> (file, row id of the catalog row it reproduces, 0-based
# columns dropped for its quadratic-only sub-selection, that row's id)
APPENDIX = {
    6: ("appendix_table6.ssd", "s3/N9/m16/thm6/k4", (0, 4, 8, 12),
        "s3/N9/m12/thm7/k4"),
    7: ("appendix_table7.ssd", "s4/N16/m15/thm6-dealias/k5", (), None),
    8: ("appendix_table8.ssd", "s5/N25/m36/thm6/k6", (0, 6, 12, 18, 24, 30),
        "s5/N25/m30/thm7/k6"),
}


def load_appendix(which: int) -> Design:
    """Load one of the bundled reference designs (9-, 16- or 25-run)."""
    name = APPENDIX[which][0]
    resource = importlib.resources.files("ssd").joinpath("data", name)
    with importlib.resources.as_file(resource) as path:
        return read_design(path)


def verify_appendix(which: int) -> RowResult:
    """Verify a bundled file and its sub-selection as the catalog rows they are."""
    name, row_id, drop, sub_id = APPENDIX[which]
    recipes = {r.row_id: r for r in CATALOG_SPECS}
    D = load_appendix(which)
    results = [verify_design(recipes[row_id], D)]
    if drop:
        keep = [i for i in range(D.m) if i not in drop]
        results.append(verify_design(recipes[sub_id], select_columns(D, keep)))
    problems = [f"{r.row_id}: {r.message}" for r in results if not r.ok]
    return RowResult(f"bundled/{name}", not problems,
                     "; ".join(problems) or results[0].message)

