"""Workload definitions: what one pass of each workload runs, and why.

A pass is a fixed list of `ssd` CLI operations.  The launcher regenerates
every input for every pass from the seed (scrambled design files, alternate
field moduli, random branching labels), so no input repeats within a run and
a cache across calls cannot skip work.  Each operation carries the values
its output must show; they come from the paper's closed forms and from the
bundled tables' published values, never from the program under test.

The base designs that get scrambled are built once per run through the
library (each workload's `bases`); only their scrambles reach the program,
as files.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

# Requested GWLP depth of `ssd evaluate` when --jmax is not given.
DEFAULT_JMAX = 3


@dataclass(frozen=True)
class Base:
    """A design to scramble: symbol matrix, level counts and exact A2."""

    matrix: np.ndarray
    levels: tuple[int, ...]
    a2: Fraction
    label: str


@dataclass
class Op:
    """One CLI call and the values its output must show.

    kind selects the check: "evaluate" (JSON report at `path`), "design"
    (design file at `path`), "oracle" (stdout) or "catalog" (stdout).
    """

    name: str
    argv: list[str]
    kind: str
    path: str | None = None
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    min_passes: int
    bases: callable
    make_pass: callable
    warmup: callable


# -- closed forms (the paper's theorems) ---------------------------------------

def thm4_shape(s, n):
    """H next to the quadratic companions of X1: (N, m, A2)."""
    return s**n, 2 * (s**n - 1) // (s - 1) - 1, Fraction(s**n - s)


def thm6_shape(s, n, k):
    """Juxtaposition of k companion arrays Q_h: (N, m, A2)."""
    return s**n, k * (s**n - 1) // (s - 1), Fraction(math.comb(k, 2) * (s**n - 1))


def thm7_shape(s, n, k):
    """Juxtaposition of k quadratic-only parts Q_h*: (N, m, A2)."""
    return (s**n, k * (s**n - s) // (s - 1),
            Fraction(math.comb(k, 2) * (s**n - 2 * s + 1)))


def thm8_shape(s, n, k):
    """k level classes of a branching column of H: (N, m, A2)."""
    return (k * s**(n - 1), (s**n - s) // (s - 1),
            Fraction((s**n - s) * (s - k), 2 * k))


# Published overall A2 of the bundled reference tables.
APPENDIX_A2 = {6: Fraction(48), 7: Fraction(45), 8: Fraction(360)}


# -- field helpers (independent of the program) ---------------------------------

def prime_power(s):
    for p in range(2, s + 1):
        if s % p == 0:
            r, t = 0, s
            while t % p == 0:
                t //= p
                r += 1
            return p, r
    raise ValueError(s)


def _poly_rem(a, b, p):
    a = list(a)
    while len(a) >= len(b):
        lead = a[-1]
        if lead:
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - lead * c) % p
        a.pop()
    return a


def irreducible_moduli(s):
    """Every monic irreducible polynomial of degree r over GF(p), s = p^r.

    Coefficients are little-endian (constant term first), as `--modulus`
    takes them.  Found by trial division by all monic polynomials of degree
    at most r/2.
    """
    p, r = prime_power(s)
    divisors = [tail + (1,) for d in range(1, r // 2 + 1)
                for tail in itertools.product(range(p), repeat=d)]
    out = []
    for tail in itertools.product(range(p), repeat=r):
        cand = tail + (1,)
        if all(any(_poly_rem(cand, d, p)) for d in divisors):
            out.append(cand)
    return out


def modulus_arg(rng, s):
    mods = irreducible_moduli(s)
    return ",".join(map(str, mods[rng.integers(len(mods))]))


def linear_label(coeffs):
    """Print a linear form in the CLI label grammar, e.g. 2*X1+X3."""
    terms = [f"X{i + 1}" if c == 1 else f"{c}*X{i + 1}"
             for i, c in enumerate(coeffs) if c]
    return "+".join(terms)


def random_h_labels(rng, s, n, count):
    """`count` distinct forms of H (last nonzero coefficient 1), printed."""
    seen = []
    while len(seen) < count:
        last = int(rng.integers(n))
        coeffs = [int(c) for c in rng.integers(s, size=last)] + [1] + [0] * (n - last - 1)
        if coeffs not in seen:
            seen.append(coeffs)
    return [linear_label(c) for c in seen]


def random_levels(rng, s, k):
    return ",".join(map(str, sorted(rng.choice(s, size=k, replace=False).tolist())))


# -- scrambled design files ------------------------------------------------------

def design_text(matrix, levels):
    lines = ["# ssd v1", f"{matrix.shape[0]} {matrix.shape[1]}",
             " ".join(map(str, levels))]
    lines += [" ".join(map(str, row)) for row in matrix.tolist()]
    return "\n".join(lines) + "\n"


def scramble(rng, base):
    """Random row order, column order and per-column symbol relabelling.

    Overall A2, the projected-A2 histogram and the bound certificates are all
    invariant under these, so the expected values stay those of the base.
    """
    X = base.matrix
    rows = rng.permutation(X.shape[0])
    cols = rng.permutation(X.shape[1])
    levels = tuple(base.levels[c] for c in cols)
    out = X[rows][:, cols].copy()
    for j, s in enumerate(levels):
        out[:, j] = rng.permutation(s)[out[:, j]]
    return out, levels


def evaluate_op(rng, tmp, tag, base, jmax=None):
    matrix, levels = scramble(rng, base)
    src = Path(tmp) / f"{tag}.ssd"
    src.write_text(design_text(matrix, levels), encoding="ascii")
    out = Path(tmp) / f"{tag}.json"
    argv = ["evaluate", str(src), "--json", str(out)]
    if jmax is not None:
        argv += ["--jmax", str(jmax)]
    return Op(base.label, argv, "evaluate", str(out), {
        "N": matrix.shape[0], "m": matrix.shape[1], "levels": list(levels),
        "a2": base.a2, "jmax": jmax, "jmax_requested": jmax or DEFAULT_JMAX})


def design_op(name, argv, out, N, m, levels, a2):
    return Op(name, argv + ["--out", str(out)], "design", str(out),
              {"N": N, "m": m, "levels": sorted(levels), "a2": a2})


# -- base designs ------------------------------------------------------------------

def _thm6_base(ssd, s, n, k):
    D = ssd.constructions.construct_thm6(ssd.gf.default_field(s), n, k)
    return Base(D.matrix, D.levels, thm6_shape(s, n, k)[2], f"thm6-s{s}-n{n}-k{k}")


def _thm4_base(ssd, s, n):
    D = ssd.constructions.construct_thm4(ssd.gf.default_field(s), n)
    return Base(D.matrix, D.levels, thm4_shape(s, n)[2], f"thm4-s{s}-n{n}")


def _mixed_base(ssd, k):
    """thm6 over GF(9), n = 2, with its k `h` columns replaced by OA(9,4,3,2).

    Replacement keeps A2 = C(k,2)*80 and the profile bound (Theorem 10) is
    still met with equality.
    """
    D = ssd.constructions.construct_thm6(ssd.gf.default_field(9), 2, k)
    gf3 = ssd.gf.default_field(3)
    table = ssd.design_core.realize(gf3, 2, ssd.poly_labels.h_set(gf3, 2)).matrix
    for col in reversed(range(0, D.m, 10)):   # each Q_h block starts with h
        D = ssd.design_core.replace_column(D, col, table)
    return Base(D.matrix, D.levels, thm6_shape(9, 2, k)[2], f"mixed-9x3-k{k}")


def _appendix_base(root, which):
    path = Path(root) / "src" / "ssd" / "data" / f"appendix_table{which}.ssd"
    lines = path.read_text(encoding="ascii").split("\n")
    levels = tuple(int(v) for v in lines[2].split())
    matrix = np.array([[int(v) for v in ln.split()] for ln in lines[3:] if ln.strip()])
    return Base(matrix, levels, APPENDIX_A2[which], f"appendix-{which}")


# -- evaluate-wide ------------------------------------------------------------------

# (base, copies per pass).  Each copy is a different scramble.
EVALUATE_WIDE = {
    "full": [(("thm6", 4, 3, 5), 2), (("mixed", 4), 2),
             (("thm6", 7, 2, 8), 3), (("thm6", 3, 4, 4), 2)],
    "tiny": [(("thm6", 3, 2, 2), 1), (("mixed", 2), 1), (("thm6", 4, 2, 2), 1)],
}


def _build(ssd, root, spec):
    if spec[0] == "thm6":
        return _thm6_base(ssd, *spec[1:])
    if spec[0] == "thm4":
        return _thm4_base(ssd, *spec[1:])
    if spec[0] == "mixed":
        return _mixed_base(ssd, spec[1])
    return _appendix_base(root, spec[1])


def evaluate_wide_bases(ssd, root, size):
    bases = {spec: _build(ssd, root, spec) for spec, _ in EVALUATE_WIDE[size]}
    bases["warmup"] = _thm4_base(ssd, 3, 2)
    return bases


def evaluate_wide_pass(rng, tmp, bases, size):
    ops = []
    for spec, copies in EVALUATE_WIDE[size]:
        for _ in range(copies):
            ops.append(evaluate_op(rng, tmp, f"{len(ops)}-{bases[spec].label}", bases[spec]))
    return ops


def evaluate_warmup(rng, tmp, bases, size):
    return evaluate_op(rng, tmp, "warmup", bases["warmup"])


# -- construct-fields ---------------------------------------------------------------

def construct_fields_pass(rng, tmp, bases, size):
    tmp = Path(tmp)
    ops = []

    def thm4(s, n, tag):
        N, m, a2 = thm4_shape(s, n)
        ops.append(design_op(f"thm4-s{s}-n{n}",
                             ["construct", "--theorem", "4", "--s", str(s), "--n", str(n),
                              "--modulus", modulus_arg(rng, s)],
                             tmp / f"{tag}.ssd", N, m, [s] * m, a2))
        return tmp / f"{tag}.ssd", m

    def thm6(s, n, k, tag):
        N, m, a2 = thm6_shape(s, n, k)
        hs = random_h_labels(rng, s, n, k)
        ops.append(design_op(f"thm6-s{s}-n{n}-k{k}",
                             ["construct", "--theorem", "6", "--s", str(s), "--n", str(n),
                              "--k", str(k), "--hs", ",".join(hs),
                              "--modulus", modulus_arg(rng, s)],
                             tmp / f"{tag}.ssd", N, m, [s] * m, a2))

    def thm7(s, n, k, tag):
        N, m, a2 = thm7_shape(s, n, k)
        ops.append(design_op(f"thm7-s{s}-n{n}-k{k}",
                             ["construct", "--theorem", "7", "--s", str(s), "--n", str(n),
                              "--k", str(k), "--modulus", modulus_arg(rng, s)],
                             tmp / f"{tag}.ssd", N, m, [s] * m, a2))

    def thm8(s, n, k, tag):
        N, m, a2 = thm8_shape(s, n, k)
        [branch] = random_h_labels(rng, s, n, 1)
        ops.append(design_op(f"thm8-s{s}-n{n}-k{k}",
                             ["construct", "--theorem", "8", "--s", str(s), "--n", str(n),
                              "--k", str(k), "--branch", branch,
                              "--levels", random_levels(rng, s, k),
                              "--modulus", modulus_arg(rng, s)],
                             tmp / f"{tag}.ssd", N, m, [s] * m, a2))

    def branch(s, n, k, tag):
        # branching H on one of its own columns is the thm8 family
        N, m, a2 = thm8_shape(s, n, k)
        [label] = random_h_labels(rng, s, n, 1)
        ops.append(design_op(f"branch-s{s}-n{n}-k{k}",
                             ["branch", "--s", str(s), "--n", str(n), "--family", "h",
                              "--branch", label, "--levels", random_levels(rng, s, k),
                              "--modulus", modulus_arg(rng, s)],
                             tmp / f"{tag}.ssd", N, m, [s] * m, a2))

    def replace(src, s, n, m_src, tag):
        # a 2^r-row saturated OA(s, s-1, 2, 2) replaces one s-level column
        N, _, a2 = thm4_shape(s, n)
        m = m_src - 1 + (s - 1)
        col = int(rng.integers(m_src))
        ops.append(design_op(f"replace-s{s}-n{n}",
                             ["replace", str(src), "--col", str(col), "--oa-levels", "2"],
                             tmp / f"{tag}.ssd", N, m,
                             [s] * (m_src - 1) + [2] * (s - 1), a2))

    if size == "tiny":
        thm4(4, 2, "a")
        big, m_big = thm4(8, 2, "b")
        replace(big, 8, 2, m_big, "c")
        thm6(4, 2, 2, "d")
        branch(3, 2, 2, "e")
        return ops
    thm4(27, 2, "gf27-thm4")
    thm8(32, 2, 16, "gf32-thm8")
    thm8(27, 2, 13, "gf27-thm8")
    big, m_big = thm4(16, 3, "gf16-thm4")
    replace(big, 16, 3, m_big, "gf16-replace")
    # three fractions of GF(16)^3 (each with its own branch, classes and
    # modulus) hold the latency median, so it rests on three calls a pass
    for c in range(3):
        thm8(16, 3, 15, f"gf16-thm8-{c}")
    thm4(25, 2, "gf25-thm4")
    thm6(9, 3, 3, "gf9-thm6")
    thm7(9, 3, 2, "gf9-thm7")
    thm6(8, 3, 4, "gf8-thm6")
    branch(9, 3, 3, "gf9-branch")
    return ops


def construct_warmup(rng, tmp, bases, size):
    s = int(rng.choice([4, 8, 9]))
    N, m, a2 = thm4_shape(s, 2)
    out = Path(tmp) / "warmup.ssd"
    return design_op(f"thm4-s{s}-n2",
                     ["construct", "--theorem", "4", "--s", str(s), "--n", "2",
                      "--modulus", modulus_arg(rng, s)], out, N, m, [s] * m, a2)


# -- small-checks -------------------------------------------------------------------

SMALL_EVALUATES = {
    "full": [("thm4", 3, 3), ("thm6", 3, 3, 4), ("thm6", 5, 2, 6), ("thm4", 4, 3),
             ("thm6", 3, 2, 3), ("appendix", 6), ("appendix", 7), ("appendix", 8)],
    "tiny": [("thm4", 3, 2), ("appendix", 6)],
}

# (N, s, m, --full, --budget or None, best A2, exhaustive, certified)
ORACLE_SEARCHES = {
    "full": [(9, 3, 5, False, None, 2, None, True),
             (8, 4, 3, True, None, 3, True, True),
             (9, 3, 3, True, None, 0, True, True),
             (9, 3, 5, True, 30000, 2, False, None)],
    "tiny": [(6, 3, 3, True, None, Fraction(3, 2), True, True)],
}

# Large enough that these searches finish long before it binds.
UNBOUNDED_BUDGET = 10**7


def small_checks_bases(ssd, root, size):
    bases = {spec: _build(ssd, root, spec) for spec in SMALL_EVALUATES[size]}
    bases["warmup"] = _thm4_base(ssd, 3, 2)
    return bases


def small_checks_pass(rng, tmp, bases, size):
    ops = []
    if size == "full":
        ops.append(Op("verify-catalog", ["verify-catalog"], "catalog",
                      expect={"rows": 34}))
    for spec in SMALL_EVALUATES[size]:
        ops.append(evaluate_op(rng, tmp, f"{len(ops)}-{bases[spec].label}", bases[spec],
                               jmax=3))
    for N, s, m, full, budget, best, exhaustive, certified in ORACLE_SEARCHES[size]:
        # an unbounded search gets a budget that cannot bind, varied per pass
        # so that the argument list never repeats
        budget_arg = budget if budget is not None else \
            UNBOUNDED_BUDGET + int(rng.integers(10**6))
        argv = ["oracle", "min-a2", "--N", str(N), "--s", str(s), "--m", str(m),
                "--budget", str(budget_arg)] + (["--full"] if full else [])
        name = f"oracle-N{N}-s{s}-m{m}" + ("-full" if full else "") + \
            (f"-budget{budget}" if budget else "")
        ops.append(Op(name, argv, "oracle", expect={
            "best": Fraction(best), "exhaustive": exhaustive, "certified": certified,
            "budget": budget_arg}))
    return ops


# -- registry -----------------------------------------------------------------------

WORKLOADS = {
    "evaluate-wide": Workload(
        "evaluate-wide",
        "ssd evaluate on scrambled thm6 designs (s = 4, 7, 3; 16/49/9 cells per "
        "pair) and a mixed 9/3-level design: Gram and per-pair exact loop dominate",
        3, evaluate_wide_bases, evaluate_wide_pass, evaluate_warmup),
    "construct-fields": Workload(
        "construct-fields",
        "ssd construct/branch/replace over GF(8..32) with seeded moduli: field "
        "arithmetic, label evaluation and text writes, no evaluation",
        3, lambda ssd, root, size: {}, construct_fields_pass, construct_warmup),
    "small-checks": Workload(
        "small-checks",
        "verify-catalog, evaluate --jmax 3 on small designs and oracle searches: "
        "per-call overhead, the GWLP j=3 loop and the brute-force search",
        3, small_checks_bases, small_checks_pass, evaluate_warmup),
}
