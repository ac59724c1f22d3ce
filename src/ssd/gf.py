"""Finite fields GF(p^r): arithmetic, trace map and canonical additive character.

Elements are encoded as integers 0..s-1 through the base-p digit expansion of
the polynomial representation, constant term first: symbol v stands for the
residue sum_i d_i x^i where v = sum_i d_i p^i.  Symbol 0 is the additive
identity and symbol 1 the multiplicative identity.  Fields of order up to
TABLE_LIMIT carry dense operation tables (used heavily by the vectorised
column evaluators); larger orders fall back to direct polynomial arithmetic.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

TABLE_LIMIT = 25

# Default moduli (Conway polynomials), little-endian coefficients, constant
# term first.  Prime fields need no modulus.  User-supplied moduli override.
DEFAULT_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (2, 2, 1),         # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 4, 1),        # x^2 + 4x + 2
}


def _prime_power(s: int) -> tuple[int, int]:
    """Decompose s = p^r with p prime, or raise."""
    if s < 2:
        raise ValueError(f"field order must be at least 2, got {s}")
    p = None
    for d in range(2, int(s**0.5) + 1):
        if s % d == 0:
            p = d
            break
    if p is None:
        return s, 1
    t, r = s, 0
    while t % p == 0:
        t //= p
        r += 1
    if t != 1:
        raise ValueError(f"{s} is not a prime power")
    return p, r


def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a divided by monic b, coefficients mod p."""
    a = _poly_trim([x % p for x in a])
    db = len(b) - 1
    while len(a) - 1 >= db and a != [0]:
        shift = len(a) - 1 - db
        lead = a[-1]
        for i, bc in enumerate(b):
            a[shift + i] = (a[shift + i] - lead * bc) % p
        a = _poly_trim(a)
    return a


def _poly_mul(a: list[int], b: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ac in enumerate(a):
        if ac:
            for j, bc in enumerate(b):
                out[i + j] = (out[i + j] + ac * bc) % p
    return _poly_trim(out)


def _is_irreducible(mod: tuple[int, ...], p: int) -> bool:
    """Exhaustive trial division by every monic polynomial of degree <= r/2."""
    r = len(mod) - 1
    if r < 1 or mod[-1] != 1:
        return False
    lst = list(mod)
    for d in range(1, r // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if _poly_mod(lst, div, p) == [0]:
                return False
    return True


def _find_irreducible(p: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over GF(p)."""
    for tail in itertools.product(range(p), repeat=r):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise RuntimeError("no irreducible polynomial found")  # unreachable


class Field:
    """Immutable GF(p^r) with canonical additive character; safe to share."""

    __slots__ = ("p", "r", "order", "modulus", "add_table", "mul_table",
                 "neg_table", "inv_table", "trace_table", "char_table",
                 "_digits")

    def __init__(self, order: int, modulus=None):
        p, r = _prime_power(order)
        self.p, self.r, self.order = p, r, order
        if r == 1:
            self.modulus = None
        else:
            if modulus is None:
                modulus = DEFAULT_MODULI.get(order) or _find_irreducible(p, r)
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {r} over GF({p})")
            if not _is_irreducible(modulus, p):
                raise ValueError(
                    f"reducible modulus {modulus} for GF({order})")
            self.modulus = modulus

        digits = np.zeros((order, r), dtype=np.int64)
        v = np.arange(order)
        for i in range(r):
            digits[:, i] = v % p
            v = v // p
        self._digits = digits

        if order <= TABLE_LIMIT:
            self._build_tables()
        else:
            self.add_table = self.mul_table = None
            self.neg_table = self.inv_table = None
        self.trace_table = self._build_trace()
        self.char_table = np.exp(2j * cmath.pi * self.trace_table / p)
        for arr in (self._digits, self.trace_table, self.char_table):
            arr.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    def _build_tables(self):
        p, r, s = self.p, self.r, self.order
        if r == 1:
            a = np.arange(s, dtype=np.int64)
            add = (a[:, None] + a[None, :]) % p
            mul = (a[:, None] * a[None, :]) % p
            neg = (-a) % p
            inv = np.array([0] + [pow(x, p - 2, p) for x in range(1, p)],
                           dtype=np.int64)
        else:
            digs = self._digits
            # addition is digitwise mod p
            summed = (digs[:, None, :] + digs[None, :, :]) % p
            weights = p ** np.arange(r)
            add = summed @ weights
            neg = ((-digs) % p) @ weights
            mul = np.zeros((s, s), dtype=np.int64)
            polys = [_poly_trim(list(digs[v])) for v in range(s)]
            mod = list(self.modulus)
            for x in range(s):
                for y in range(x, s):
                    prod = _poly_mod(_poly_mul(polys[x], polys[y], p), mod, p)
                    val = sum(c * p**i for i, c in enumerate(prod))
                    mul[x, y] = mul[y, x] = val
            inv = np.zeros(s, dtype=np.int64)
            for x in range(1, s):
                inv[x] = int(np.nonzero(mul[x] == 1)[0][0])
        self.add_table = add.astype(np.int64)
        self.mul_table = mul.astype(np.int64)
        self.neg_table = np.asarray(neg, dtype=np.int64)
        self.inv_table = inv
        for arr in (self.add_table, self.mul_table, self.neg_table,
                    self.inv_table):
            arr.setflags(write=False)

    def _build_trace(self) -> np.ndarray:
        p, r = self.p, self.r
        tr = np.zeros(self.order, dtype=np.int64)
        for x in range(self.order):
            acc, xi = x, x
            for _ in range(r - 1):
                xi = self.pow_(xi, p)
                acc = self.add(acc, xi)
            if acc >= p:
                raise AssertionError("trace left the prime subfield")
            tr[x] = acc
        return tr

    # -- scalar arithmetic ---------------------------------------------------

    def _mul_direct(self, x: int, y: int) -> int:
        p = self.p
        prod = _poly_mod(_poly_mul(list(self._digits[x]), list(self._digits[y]), p),
                         list(self.modulus), p)
        return sum(c * p**i for i, c in enumerate(prod))

    def add(self, x: int, y: int) -> int:
        if self.add_table is not None:
            return int(self.add_table[x, y])
        d = (self._digits[x] + self._digits[y]) % self.p
        return int(d @ self.p ** np.arange(self.r))

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        if self.neg_table is not None:
            return int(self.neg_table[x])
        d = (-self._digits[x]) % self.p
        return int(d @ self.p ** np.arange(self.r))

    def mul(self, x: int, y: int) -> int:
        if self.mul_table is not None:
            return int(self.mul_table[x, y])
        return self._mul_direct(x, y)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        if self.inv_table is not None:
            return int(self.inv_table[x])
        return self.pow_(x, self.order - 2)

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow_(self, x: int, k: int) -> int:
        if k < 0:
            x, k = self.inv(x), -k
        out = 1
        while k:
            if k & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            k >>= 1
        return out

    # -- structure -----------------------------------------------------------

    def trace(self, x: int) -> int:
        return int(self.trace_table[x])

    def char(self, x: int) -> complex:
        """Canonical additive character exp(2*pi*i*Tr(x)/p)."""
        return complex(self.char_table[x])

    def elements(self) -> range:
        return range(self.order)

    def units(self) -> range:
        return range(1, self.order)

    def __repr__(self):
        if self.r == 1:
            return f"GF({self.order})"
        return f"GF({self.order}, modulus={list(self.modulus)})"


def field_new(s: int, modulus=None) -> Field:
    """Construct GF(s) for a prime power s, with an optional modulus override."""
    return Field(s, modulus)


_FIELD_CACHE: dict[int, Field] = {}


def default_field(s: int) -> Field:
    """Shared GF(s) under the default modulus (fields are immutable)."""
    f = _FIELD_CACHE.get(s)
    if f is None:
        f = Field(s)
        _FIELD_CACHE[s] = f
    return f


def enumerate_points(field: Field, n: int) -> np.ndarray:
    """All points of F_s^n in lexicographic order, first coordinate slowest.

    Returns an (s^n, n) integer array whose rows are the points.
    """
    if n < 1:
        raise ValueError("need at least one coordinate")
    s = field.order
    pts = np.array(list(itertools.product(range(s), repeat=n)), dtype=np.int64)
    return pts.reshape(s**n, n)
