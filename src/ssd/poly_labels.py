"""Column labels: nonzero linear forms, the canonical set H, and quadratic labels.

A design column is named by a polynomial in the point coordinates X1..Xn:
either a linear form c1*X1 + ... + cn*Xn, or a quadratic label
l(X)^2 + a*l(X) + g(X) built on a linear form l.  The canonical set H
consists of the nonzero linear forms whose *last* nonzero coefficient is 1;
evaluated over F_s^n it is a saturated strength-2 orthogonal array.  For each
h in H, a companion saturated array Q_h is obtained by the change of basis
Y1 = h, Y2..Yk = X1..X(k-1), Y(k+1).. = X(k+1).. (k the position of the last
nonzero coefficient of h) and attaching quadratic labels Y1^2 + a*Y1 + g with
g ranging over H(Y2..Yn), rewritten eagerly in X coordinates.  Q1 is the
member with h = X1.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

import numpy as np

from .gf import MAX_ORDER, Field, point_count

# Cells per block of eval_labels: linear forms are built, and output columns
# formed, about this many cells at a time, which bounds the index temporaries.
EVAL_BLOCK_CELLS = 1 << 18

# Output columns per transposed copy: a (points x 16) slab of the output is
# filled faster than one copy of a whole block of columns.
FILL_COLUMNS = 16

# Indices per take of the quadratic finish: take copies narrow indices to
# intp, and 2^13 of them (64 KiB) stay below glibc's initial 128 KiB mmap
# threshold, so the copy is reused from the heap, not faulted in afresh.
TAKE_CELLS = 1 << 13


@dataclass(frozen=True)
class LinearForm:
    """c1*X1 + ... + cn*Xn, coefficients as field symbols."""

    coeffs: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.coeffs)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def last_nonzero(self) -> int:
        """0-based index of the last nonzero coefficient, or -1."""
        for i in range(len(self.coeffs) - 1, -1, -1):
            if self.coeffs[i]:
                return i
        return -1


@dataclass(frozen=True)
class QuadraticLabel:
    """l(X)^2 + a*l(X) + g(X)."""

    ell: LinearForm
    a: int
    g: LinearForm

    @property
    def n(self) -> int:
        return self.ell.n


Label = LinearForm | QuadraticLabel


def unit_form(n: int, i: int) -> LinearForm:
    """The coordinate form X{i+1}."""
    c = [0] * n
    c[i] = 1
    return LinearForm(tuple(c))


def scale_form(field: Field, c: int, f: LinearForm) -> LinearForm:
    return LinearForm(tuple(field.mul(c, x) for x in f.coeffs))


def add_forms(field: Field, f1: LinearForm, f2: LinearForm) -> LinearForm:
    return LinearForm(tuple(field.add(a, b) for a, b in zip(f1.coeffs, f2.coeffs)))


def h_set(field: Field, n: int) -> list[LinearForm]:
    """All nonzero linear forms in X1..Xn whose last nonzero coefficient is 1.

    There are (s^n - 1)/(s - 1) of them; the order is lexicographic on the
    reversed coefficient vector (c_n, ..., c_1): by the position k of the
    last nonzero coefficient, then in product order of (c_k, ..., c_1).  It
    is deterministic and puts X1 first.
    """
    if n < 1:
        raise ValueError("need at least one variable")
    return [LinearForm(tuple(reversed(head)) + (1,) + (0,) * (n - k - 1))
            for k in range(n)
            for head in itertools.product(range(field.order), repeat=k)]


def qh_star(field: Field, h: LinearForm, n: int) -> list[QuadraticLabel]:
    """Quadratic labels h^2 + a*h + g(Y2..Yn) of Q_h, in X coordinates.

    Ordered by a ascending, then g in canonical H(n-1) order.  Y2..Yn are
    the coordinates other than that of h's last nonzero coefficient, in
    order, so g is rewritten by writing its coefficients into their X
    positions, with no field arithmetic.
    """
    if n < 2:
        raise ValueError("quadratic label sets need at least two variables")
    if h.n != n:
        raise ValueError("form has the wrong number of variables")
    k = h.last_nonzero()
    if k < 0 or h.coeffs[k] != 1:
        raise ValueError(
            "not a canonical form: the last nonzero coefficient must be 1")
    pos = [i for i in range(n) if i != k]
    tails = []
    for g in h_set(field, n - 1):
        c = [0] * n
        for i, d in zip(pos, g.coeffs):
            c[i] = d
        tails.append(LinearForm(tuple(c)))
    return [QuadraticLabel(h, a, g) for a in field.elements() for g in tails]


def qh(field: Field, h: LinearForm, n: int) -> list[Label]:
    return [h, *qh_star(field, h, n)]


def _x1(n: int) -> LinearForm:
    if n < 2:
        raise ValueError("quadratic label sets need at least two variables")
    return unit_form(n, 0)


def q1_star(field: Field, n: int) -> list[QuadraticLabel]:
    """Q_h* at h = X1: X1^2 + a*X1 + g for a in F_s, g in H(X2..Xn)."""
    return qh_star(field, _x1(n), n)


def q1(field: Field, n: int) -> list[Label]:
    return qh(field, _x1(n), n)


# -- evaluation ---------------------------------------------------------------

def _add_last_coordinate(flat, prefix, last, keep, out) -> None:
    """out[f, k] = prefix[f, r // s] + last[f, r % s] for the k-th kept point
    r (keep[k], or every point in order when keep is None), through the
    flat s x s add table, a block of about EVAL_BLOCK_CELLS cells at a
    time."""
    s = last.shape[1]
    block = max(1, EVAL_BLOCK_CELLS // len(out))
    # the intp casts keep narrow symbols from overflowing
    if keep is None:
        # every point: whole prefixes, each followed by its s points
        step = max(1, block // s)
        for p0 in range(0, prefix.shape[1], step):
            idx = (prefix[:, p0:p0 + step, None].astype(np.intp) * s
                   + last[:, None, :])
            out[:, p0 * s:(p0 + step) * s] = flat.take(
                idx.reshape(len(out), -1))
        return
    for r0 in range(0, len(keep), block):
        r = keep[r0:r0 + block]
        idx = prefix[:, r // s].astype(np.intp) * s
        idx += last[:, r % s]
        out[:, r0:r0 + len(r)] = flat.take(idx)


def eval_labels(field: Field, labels, n: int, rows=None) -> np.ndarray:
    """Evaluate labels at every point of F_s^n, one column each, in the dtype
    of the field's tables (the Design's symbol dtype for s levels).

    Rows follow enumerate_points order; with rows (indices into that
    order, each in 0..s^n - 1) only those points are evaluated, in that
    order.  Each distinct linear form, whether a linear label or the l or
    g of a quadratic one, is evaluated once, a coordinate at a time, the
    first coordinate slowest: c_1 X_1 is the row mul[c_1, :], and each
    later coordinate turns every (form, prefix value v) into the s symbols
    v + c_i X_i, one gather of the row [c_i, v] of the field's affine
    table (at most 64^3 entries, built once per field) read as records of
    s symbols.  When s^n <= MAX_ORDER every coordinate takes whole rows,
    and a fraction's kept rows are read from that grid.  Above it (the
    point sets of branch_fraction, at most s MAX_ORDER points) the first
    n - 1 coordinates take whole rows, at most MAX_ORDER prefixes, and the
    last coordinate is added at each kept point r, mul[c_n, r % s] onto
    prefix r // s through the flat add table, a block of points at a time,
    so no index spans the whole point set.  A quadratic label is then
    sq[a, l] + g, where the s x s table sq[a, v] = v (v + a) = v^2 + a v:
    each block of output columns reads the row sq[a, l] once per distinct
    (l, a) among its quadratic labels, and finishes its columns with
    lookups of the flat add table, TAKE_CELLS at a time.  Forms are built,
    and output columns formed, a block of about EVAL_BLOCK_CELLS cells at
    a time; each block is copied into the output FILL_COLUMNS columns at a
    time.
    """
    s = field.order
    N = point_count(s, n, s * MAX_ORDER)
    forms: dict[tuple[int, ...], int] = {}   # coefficients -> row of F

    def form(f: LinearForm) -> int:
        if f.n != n:
            raise ValueError(f"label has {f.n} variables, expected {n}")
        return forms.setdefault(f.coeffs, len(forms))

    spec = [(form(lab), -1, 0) if isinstance(lab, LinearForm)
            else (form(lab.ell), lab.a, form(lab.g)) for lab in labels]
    ell, a, g = np.array(spec, dtype=np.intp).reshape(-1, 3).T
    add, mul = field.add_table, field.mul_table
    flat = add.ravel()
    keep = None if rows is None else np.asarray(rows, dtype=np.intp)
    R = N if keep is None else len(keep)
    if R and keep is not None and not 0 <= keep.min() <= keep.max() < N:
        raise ValueError(f"rows must lie in 0..{N - 1}")
    whole = N <= MAX_ORDER
    # coordinates 2..`rowwise` take whole rows; s <= AFFINE_MAX_ORDER there
    rowwise = n if whole else n - 1
    if rowwise > 1:
        # record c s + v: the s symbols v + c X
        records = field.affine_table.reshape(s * s, s).view(
            np.dtype((np.void, s * add.itemsize))).ravel()
    coeffs = np.array(list(forms), dtype=np.intp).reshape(-1, n)
    F = np.empty((len(coeffs), R), dtype=add.dtype)
    # a block's widest array is its grid of points, or of prefixes
    step = max(1, EVAL_BLOCK_CELLS // (N if whole else N // s))
    for f0 in range(0, len(coeffs), step):
        c = coeffs[f0:f0 + step]
        acc = mul[c[:, 0]]
        for i in range(1, rowwise):
            acc = records.take(c[:, i, None] * s + acc).view(add.dtype)
        if not whole:
            _add_last_coordinate(flat, acc, mul[c[:, -1]], keep,
                                 F[f0:f0 + step])
        elif keep is None:
            F[f0:f0 + step] = acc
        else:
            # the rows are checked above; "wrap" writes out unbuffered
            acc.take(keep, axis=1, out=F[f0:f0 + step], mode="wrap")

    # sq[a, v] s, so that add[sq[a, l], g] is flat[sq_s[a, l] + g]; its
    # dtype is the narrowest that holds an index s^2 - 1 of the flat table.
    # An s x s table, so built only when some label is quadratic.
    if (a >= 0).any():
        v = np.arange(s)
        sq_s = mul[v[None, :], add[v[None, :], v[:, None]]].astype(
            np.min_scalar_type(s * s - 1)) * s
    out = np.empty((R, len(spec)), dtype=add.dtype)
    step = max(1, EVAL_BLOCK_CELLS // max(R, 1))
    for j0 in range(0, len(spec), step):
        j = slice(j0, j0 + step)
        vals = F[ell[j]]
        q = np.flatnonzero(a[j] >= 0)
        if q.size:
            # one row sq[a, F_l] s per distinct (l, a) of the block, found
            # with a dict: np.unique would page in numpy's sort code, which
            # raises a construct-only process's peak RSS
            keys = (ell[j][q] * s + a[j][q]).tolist()
            row = {k: r for r, k in enumerate(dict.fromkeys(keys))}
            la = np.array(list(row), dtype=np.intp)
            sq_rows = sq_s[la[:, None] % s, F[la // s]]
            idx = sq_rows[[row[k] for k in keys]]
            idx += F[g[j][q]]
            # in range by construction, so "wrap" writes fin unbuffered
            fin = np.empty(idx.size, dtype=add.dtype)
            idx = idx.ravel()
            for i0 in range(0, idx.size, TAKE_CELLS):
                flat.take(idx[i0:i0 + TAKE_CELLS],
                          out=fin[i0:i0 + TAKE_CELLS], mode="wrap")
            vals[q] = fin.reshape(len(q), R)
        for k in range(0, len(vals), FILL_COLUMNS):
            part = vals[k:k + FILL_COLUMNS]
            out[:, j0 + k:j0 + k + len(part)] = part.T
    return out


# -- printing / parsing -------------------------------------------------------

def _lin_str(form: LinearForm) -> str:
    terms = []
    for i, c in enumerate(form.coeffs):
        if c == 0:
            continue
        terms.append(f"X{i + 1}" if c == 1 else f"{c}*X{i + 1}")
    return "+".join(terms) if terms else "0"


def label_str(field: Field, label: Label) -> str:
    """Canonical printed form, e.g. "X1^2+2*X1+X2" or "(X1+X2)^2+2*X2".

    Quadratic labels are normalised by merging a*l + g into one linear part,
    so two labels with the same column have the same string.
    """
    if isinstance(label, LinearForm):
        return _lin_str(label)
    merged = add_forms(field, scale_form(field, label.a, label.ell), label.g)
    k = label.ell.last_nonzero()
    single = sum(1 for c in label.ell.coeffs if c) == 1 and label.ell.coeffs[k] == 1
    base = f"X{k + 1}^2" if single else f"({_lin_str(label.ell)})^2"
    if merged.is_zero:
        return base
    return f"{base}+{_lin_str(merged)}"


_TERM_RE = re.compile(r"^(?:(\d+)\*)?(?:X(\d+)|\(([^()]*)\))(\^2)?$")


def _split_terms(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "+" and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return parts


def parse_label(field: Field, text: str, n: int) -> Label:
    """Parse the grammar produced by label_str, a label in X1..Xn;
    round-trips by printed form."""
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty label")
    for k in map(int, re.findall(r"X(\d+)", text)):
        if not 1 <= k <= n:
            raise ValueError(f"variable X{k} in label {text!r} is not one "
                             f"of X1..X{n}")

    def parse_linear(sub: str) -> LinearForm:
        acc = LinearForm((0,) * n)
        for term in _split_terms(sub):
            m = _TERM_RE.match(term)
            if not m or m.group(4):
                raise ValueError(f"bad linear term {term!r}")
            coef = int(m.group(1)) if m.group(1) else 1
            if coef >= field.order:
                raise ValueError(f"coefficient {coef} out of range")
            if m.group(2):
                base = unit_form(n, int(m.group(2)) - 1)
            else:
                base = parse_linear(m.group(3))
            acc = add_forms(field, acc, scale_form(field, coef, base))
        return acc

    quad_base = None
    linear_terms = []
    for term in _split_terms(text):
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"bad term {term!r} in label {text!r}")
        if m.group(4):  # squared term
            if m.group(1):
                raise ValueError("squared term cannot carry a coefficient")
            if quad_base is not None:
                raise ValueError("more than one squared term")
            if m.group(2):
                quad_base = unit_form(n, int(m.group(2)) - 1)
            else:
                quad_base = parse_linear(m.group(3))
        else:
            linear_terms.append(term)
    merged = parse_linear("+".join(linear_terms)) if linear_terms else LinearForm((0,) * n)
    if quad_base is None or quad_base.is_zero:  # a squared zero form vanishes
        if merged.is_zero:
            raise ValueError(f"zero label {text!r}")
        return merged
    return QuadraticLabel(quad_base, 0, merged)
