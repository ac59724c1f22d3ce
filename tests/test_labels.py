import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ssd import poly_labels
from ssd.design_core import MAX_RUNS, realize
from ssd.gf import Field, default_field, enumerate_points
from ssd.oracle import (classify_pair, eval_label, forms_dependent, is_oa,
                        qh_substitution)
from ssd.poly_labels import (LinearForm, QuadraticLabel, add_forms,
                             eval_labels, h_set, label_str, parse_label, q1,
                             q1_star, qh, qh_star, scale_form, unit_form)


def strs(field, labels):
    return [label_str(field, lab) for lab in labels]


def test_h_set_3_2(gf3):
    assert strs(gf3, h_set(gf3, 2)) == ["X1", "X2", "X1+X2", "2*X1+X2"]


@pytest.mark.parametrize("s,n", [(3, 3), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_h_set_count(s, n):
    f = default_field(s)
    assert len(h_set(f, n)) == (s**n - 1) // (s - 1)


def test_h_set_last_nonzero_is_one(gf5):
    for form in h_set(gf5, 3):
        assert form.coeffs[form.last_nonzero()] == 1


# the label rewrites are checked over these fields and n = 2..4
REWRITE_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def h_set_by_filter(field, n):
    """Every coefficient tuple in lexicographic order of (c_n, ..., c_1),
    kept when its last nonzero coefficient is 1: the reference order."""
    return [LinearForm(tuple(reversed(rev)))
            for rev in itertools.product(range(field.order), repeat=n)
            if next((c for c in rev if c), None) == 1]


def qh_tails_by_field_arithmetic(field, h, n, gys):
    """The tails g(Y2..Yn) of Q_h*, g in gys = H(n-1), each expanded as
    sum_j g_j * Y_j by scalar form arithmetic: the reference for the
    positional rewrite in qh_star."""
    ys = qh_substitution(h, n)
    tails = []
    for gy in gys:
        acc = LinearForm((0,) * n)
        for j, d in enumerate(gy.coeffs):
            if d:
                acc = add_forms(field, acc, scale_form(field, d, ys[j + 1]))
        tails.append(acc)
    return tails


@pytest.mark.parametrize("s", REWRITE_FIELDS)
def test_h_set_matches_tuple_filter(s):
    f = default_field(s)
    for n in (1, 2, 3, 4):
        assert h_set(f, n) == h_set_by_filter(f, n)


@pytest.mark.parametrize("s", REWRITE_FIELDS)
def test_qh_star_matches_field_arithmetic(s):
    f = default_field(s)
    for n in (2, 3, 4):
        gys = h_set_by_filter(f, n - 1)
        for h in h_set(f, n):
            tails = qh_tails_by_field_arithmetic(f, h, n, gys)
            assert ([(lab.ell, lab.a, lab.g) for lab in qh_star(f, h, n)]
                    == list(itertools.product([h], f.elements(), tails)))


def test_q1_star_3_2(gf3):
    assert strs(gf3, q1_star(gf3, 2)) == [
        "X1^2+X2", "X1^2+X1+X2", "X1^2+2*X1+X2"]


@pytest.mark.parametrize("s,n", [(3, 2), (3, 3), (5, 2)])
def test_q1_star_count(s, n):
    f = default_field(s)
    assert len(q1_star(f, n)) == (s**n - 1) // (s - 1) - 1


def test_q1_star_needs_two_variables(gf3):
    # n = 0 is rejected before X1 is built, not by an IndexError
    for family in (q1, q1_star):
        for n in (0, 1):
            with pytest.raises(ValueError, match="two variables"):
                family(gf3, n)


def test_qh_substitution_rules():
    # identity for X1
    x1 = unit_form(2, 0)
    assert qh_substitution(x1, 2) == [x1, unit_form(2, 1)]
    # h touching the last variable rotates the earlier coordinates in
    h = LinearForm((1, 1))
    assert qh_substitution(h, 2) == [h, unit_form(2, 0)]
    h2 = LinearForm((0, 1, 0))  # X2 with k = 2
    assert qh_substitution(h2, 3) == [h2, unit_form(3, 0), unit_form(3, 2)]


def test_qh_star_rejects_noncanonical(gf3):
    message = "^not a canonical form: the last nonzero coefficient must be 1$"
    for h in (LinearForm((2, 0)), LinearForm((1, 2)), LinearForm((0, 0))):
        with pytest.raises(ValueError, match=message):
            qh_star(gf3, h, 2)
    with pytest.raises(ValueError, match="wrong number of variables"):
        qh_star(gf3, unit_form(3, 0), 2)


def test_qh_families_3_2(gf3):
    # the four family listings over GF(3), two variables
    fam = {label_str(gf3, h): strs(gf3, qh(gf3, h, 2)) for h in h_set(gf3, 2)}
    assert fam["X2"] == ["X2", "X2^2+X1", "X2^2+X1+X2", "X2^2+X1+2*X2"]
    assert fam["X1+X2"] == ["X1+X2", "(X1+X2)^2+X1", "(X1+X2)^2+2*X1+X2",
                            "(X1+X2)^2+2*X2"]
    assert fam["2*X1+X2"] == ["2*X1+X2", "(2*X1+X2)^2+X1", "(2*X1+X2)^2+X2",
                              "(2*X1+X2)^2+2*X1+2*X2"]


def test_qh_with_x1_equals_q1(gf3):
    assert qh(gf3, unit_form(3, 0), 3) == q1(gf3, 3)


def test_eval_label(gf3, gf4):
    lab = parse_label(gf3, "X1^2+X2", 2)
    assert eval_label(gf3, lab, (1, 1)) == 2
    lab2 = parse_label(gf3, "X1^2+2*X1+X2", 2)
    assert eval_label(gf3, lab2, (2, 0)) == 2
    lab4 = parse_label(gf4, "X1^2+X2", 2)
    assert eval_label(gf4, lab4, (2, 1)) == 2  # 2*2 = 3, 3 + 1 = 2


def test_eval_labels_matches_scalar(gf4):
    pts = enumerate_points(gf4, 2)
    labels = q1(gf4, 2)
    assert eval_labels(gf4, labels, 2).tolist() == [
        [eval_label(gf4, lab, p) for lab in labels] for p in pts]


def _every_modulus(*orders):
    """GF(q) under every irreducible modulus, for each (q, p, r)."""
    fields = []
    for q, p, r in orders:
        for tail in itertools.product(range(p), repeat=r):
            try:
                fields.append(Field(q, tail + (1,)))
            except ValueError:   # reducible
                pass
    return fields


# prime fields, and GF(q), q <= 27, under every irreducible modulus
EVERY_FIELD = [default_field(p) for p in (2, 3, 5, 7, 11, 13)]
EVERY_FIELD += _every_modulus((4, 2, 2), (8, 2, 3), (9, 3, 2), (16, 2, 4),
                              (25, 5, 2), (27, 3, 3))
# the widest fields whose 4096-point plane takes whole rows at n = 2
WIDE_FIELDS = _every_modulus((32, 2, 5), (64, 2, 6))


@st.composite
def label_batches(draw):
    """A field, n in 1..3 (at most MAX_RUNS points), random linear and
    quadratic labels, and either every point or a random list of rows."""
    f = draw(st.sampled_from(EVERY_FIELD))
    n = draw(st.sampled_from([k for k in (1, 2, 3) if f.order**k <= MAX_RUNS]))
    sym = st.integers(0, f.order - 1)
    form = st.builds(LinearForm, st.tuples(*[sym] * n))
    label = st.one_of(form, st.builds(QuadraticLabel, form, sym, form))
    labels = draw(st.lists(label, min_size=1, max_size=6))
    N = f.order**n
    rows = draw(st.none() | st.lists(st.integers(0, N - 1), min_size=1,
                                     max_size=40))
    return f, n, labels, rows


@settings(max_examples=80, deadline=None)
@given(label_batches())
def test_eval_labels_matches_scalar_every_modulus(batch):
    f, n, labels, rows = batch
    pts = enumerate_points(f, n)
    if rows is not None:
        pts = pts[rows]
    assert eval_labels(f, labels, n, rows).tolist() == [
        [eval_label(f, lab, p) for lab in labels] for p in pts]


@st.composite
def wide_field_batches(draw):
    """GF(32) or GF(64) under any modulus at n = 2: s forms whose coefficient
    at one coordinate takes every field value, so every row c of the affine
    table is read, random quadratic labels, and random rows."""
    f = draw(st.sampled_from(WIDE_FIELDS))
    s = f.order
    sym = st.integers(0, s - 1)
    other = draw(st.lists(sym, min_size=s, max_size=s))
    swept = draw(st.sampled_from([0, 1]))
    labels = [LinearForm((c, o) if swept == 0 else (o, c))
              for c, o in zip(range(s), other)]
    form = st.builds(LinearForm, st.tuples(sym, sym))
    labels += draw(st.lists(st.builds(QuadraticLabel, form, sym, form),
                            max_size=6))
    rows = draw(st.lists(st.integers(0, s * s - 1), min_size=1, max_size=30))
    return f, labels, rows


@settings(max_examples=30, deadline=None)
@given(wide_field_batches())
def test_eval_labels_over_gf32_and_gf64_matches_scalar(batch):
    """Whole rows of tables of up to 64^3 entries, on the full grid and at
    kept rows, against the scalar evaluator at those rows."""
    f, labels, rows = batch
    want = [[eval_label(f, lab, p) for lab in labels]
            for p in enumerate_points(f, 2)[rows]]
    assert eval_labels(f, labels, 2, rows).tolist() == want
    assert eval_labels(f, labels, 2)[rows].tolist() == want


@pytest.mark.parametrize("s,n", [(9, 4), (16, 4), (64, 3), (4096, 2)])
def test_eval_labels_above_max_order_matches_scalar(s, n):
    """Point sets above MAX_ORDER, as branch_fraction evaluates them, take
    the last coordinate a point at a time: at kept rows, and (up to 64^3
    points) on the whole point set, a block of points at a time."""
    f = default_field(s)
    N = s**n
    rng = np.random.default_rng(s)

    def form():
        return LinearForm(tuple(int(c) for c in rng.integers(s, size=n)))

    labels = [form() for _ in range(4)] + [unit_form(n, n - 1)]
    if s < 4096:   # an s x s square table at s = 4096 would be 67 MB
        labels += [QuadraticLabel(form(), int(rng.integers(s)), form())
                   for _ in range(2)]
    rows = rng.choice(N, size=1500, replace=False)
    pts = rows[:, None] // s ** np.arange(n - 1, -1, -1) % s
    want = [[eval_label(f, lab, p) for lab in labels] for p in pts]
    with pytest.MonkeyPatch.context() as mp:
        # blocks of 1000 points, or of the whole prefixes that hold them
        mp.setattr(poly_labels, "EVAL_BLOCK_CELLS", 1000)
        assert eval_labels(f, labels, n, rows).tolist() == want
        if N <= 64**3:
            assert eval_labels(f, labels, n)[rows].tolist() == want


def test_kept_rows_of_gf4096_squared_build_no_s2_table():
    """A fraction of GF(4096)^2 evaluates its linear labels at its 4096
    kept points alone: no whole-row table of s^2 entries (33.5 MB), and no
    index over the 16.7M points, is allocated."""
    import tracemalloc
    f = default_field(4096)
    s = f.order
    rows = np.random.default_rng(1).choice(s * s, size=4096, replace=False)
    labels = [LinearForm((c, 1)) for c in (0, 1, 77, s - 1)] + [
        unit_form(2, 0)]
    tracemalloc.start()
    try:
        out = eval_labels(f, labels, 2, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (4096, 5)
    assert peak < s * s // 4
    x1, x2 = rows // s, rows % s
    assert (out[:, 4] == x1).all() and (out[:, 0] == x2).all()


@st.composite
def kept_rows(draw):
    """A field, n with at most 2 * MAX_RUNS points, random labels, a block
    size, and rows: a random subset in random order, or the points where a
    branch label takes each of some kept values, grouped by value in
    ascending order as branch_fraction keeps them."""
    f = draw(st.sampled_from([default_field(s) for s in (2, 3, 4, 5, 8, 9)]))
    n = draw(st.sampled_from([k for k in (1, 2, 3, 4)
                              if f.order**k <= 2 * MAX_RUNS]))
    sym = st.integers(0, f.order - 1)
    form = st.builds(LinearForm, st.tuples(*[sym] * n))
    label = st.one_of(form, st.builds(QuadraticLabel, form, sym, form))
    labels = draw(st.lists(label, min_size=1, max_size=8))
    N = f.order**n
    if draw(st.booleans()):
        rows = draw(st.permutations(range(N)))[:draw(st.integers(1, N))]
    else:
        col = eval_labels(f, [draw(label)], n)[:, 0]
        kept = draw(st.lists(sym, min_size=1, max_size=f.order, unique=True))
        rows = np.concatenate([np.flatnonzero(col == v)
                               for v in sorted(kept)])
    return f, n, labels, rows, draw(st.sampled_from([1, 64, 1 << 18]))


@settings(max_examples=60, deadline=None)
@given(kept_rows())
def test_eval_labels_at_kept_rows_is_the_full_grid_at_those_rows(batch):
    """Evaluating at the kept points alone, a block of forms or of output
    columns at a time, gives the rows of the whole grid's evaluation."""
    f, n, labels, rows, block = batch
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(poly_labels, "EVAL_BLOCK_CELLS", block)
        kept = eval_labels(f, labels, n, rows)
    assert kept.dtype == f.add_table.dtype
    assert (kept == eval_labels(f, labels, n)[rows]).all()


def test_eval_labels_rejects_wrong_variable_count(gf3):
    with pytest.raises(ValueError, match="2 variables, expected 3"):
        eval_labels(gf3, [unit_form(2, 0)], 3)


@pytest.mark.parametrize("n", [2, 8])   # whole rows, and point by point
def test_eval_labels_rejects_rows_outside_the_points(gf3, n):
    N = 3**n
    for rows in ([0, N], [-1, 2]):
        with pytest.raises(ValueError, match=f"rows must lie in 0..{N - 1}"):
            eval_labels(gf3, [unit_form(n, 0)], n, rows)


def test_label_round_trip(gf3, gf5):
    for f, n in ((gf3, 2), (gf3, 3), (gf5, 2)):
        labels = list(h_set(f, n)) + list(q1_star(f, n))
        for h in h_set(f, n):
            labels += qh_star(f, h, n)
        for lab in labels:
            text = label_str(f, lab)
            back = parse_label(f, text, n)
            assert label_str(f, back) == text
            cols = eval_labels(f, [back, lab], n)
            assert (cols[:, 0] == cols[:, 1]).all()


def test_parse_rejects_garbage(gf3):
    for bad in ("", "X1^2+X1^2", "5*X1", "Y1", "2*(X1)^2"):
        with pytest.raises(ValueError):
            parse_label(gf3, bad, 2)


def test_parse_squared_zero_form_vanishes(gf3):
    # X1 + 2*X1 is the zero form over GF(3), so its square drops out
    assert parse_label(gf3, "(X1+2*X1)^2+X2", 2) == unit_form(2, 1)
    with pytest.raises(ValueError, match="^zero label"):
        parse_label(gf3, "(X1+2*X1)^2", 2)


def test_dependent_forms_fully_aliased(gf5):
    f1 = LinearForm((1, 2))
    f2 = LinearForm((2, 4))
    f3 = LinearForm((1, 0))
    assert forms_dependent(gf5, f2, f1)
    D = realize(gf5, 2, [f1, f2, f3])
    assert classify_pair(D, 0, 1).kind == "fully_aliased"
    assert not forms_dependent(gf5, f1, f3)
    assert classify_pair(D, 0, 2).kind == "orthogonal"


@pytest.mark.parametrize("s,n", [(3, 2), (3, 3), (4, 2), (5, 2)])
def test_h_set_realizes_saturated_oa(s, n):
    f = default_field(s)
    D = realize(f, n, h_set(f, n))
    assert is_oa(D, 2)
    assert D.m * (s - 1) == D.N - 1  # saturated


@pytest.mark.parametrize("s,n", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
def test_q1_realizes_saturated_oa(s, n):
    f = default_field(s)
    D = realize(f, n, q1(f, n))
    assert is_oa(D, 2)


def test_q1_isomorphic_to_h_for_n2(gf3, gf4, gf5):
    # explicit row bijection (x1, x2) -> (y1, y2) = (x1, x1^2 + x2) maps the
    # quadratic family onto the linear one: a*Y1 + Y2 = X1^2 + a*X1 + X2
    for f in (gf3, gf4, gf5):
        s = f.order
        pts = enumerate_points(f, 2)
        y_index = np.array([p[0] * s + f.add(f.mul(p[0], p[0]), p[1])
                            for p in pts])
        for a in f.elements():
            quad = QuadraticLabel(unit_form(2, 0), a, unit_form(2, 1))
            lin = LinearForm((a, 1))
            qcol, lcol = eval_labels(f, [quad, lin], 2).T
            assert (qcol == lcol[y_index]).all()
