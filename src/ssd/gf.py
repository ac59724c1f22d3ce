"""Finite fields GF(p^r): arithmetic, trace map and canonical additive character.

Elements are encoded as integers 0..s-1 through the base-p digit expansion of
the polynomial representation, constant term first: symbol v stands for the
residue sum_i d_i x^i where v = sum_i d_i p^i.  Symbol 0 is the additive
identity and symbol 1 the multiplicative identity.  Every field carries
dense read-only add/mul tables (s x s) and neg/inv tables (s), in the
narrowest unsigned dtype that holds a symbol; scalar and vectorised
arithmetic both read them, so there is one arithmetic path for every order.
The multiplication table comes from the discrete logarithm to a primitive
element (O(s) scalar steps, then one s x s gather), addition from the digit
expansion.  Orders above MAX_ORDER are rejected: no design has more runs, so
no design can use a larger field.
"""

from __future__ import annotations

import cmath
import itertools

import numpy as np

# Largest supported field order and design run count (N = s^n <= 4096).
MAX_ORDER = 4096

# Default moduli (Conway polynomials), little-endian coefficients, constant
# term first.  Prime fields need no modulus.  User-supplied moduli override.
DEFAULT_MODULI = {
    4: (1, 1, 1),         # x^2 + x + 1
    8: (1, 1, 0, 1),      # x^3 + x + 1
    9: (2, 2, 1),         # x^2 + 2x + 2
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1
    25: (2, 4, 1),        # x^2 + 4x + 2
}


def check_order(order: int) -> tuple[int, int]:
    """(p, r) with order = p^r, p prime, after the checks Field makes of
    its order before it builds any table: at most MAX_ORDER, at least 2,
    and a prime power."""
    if order > MAX_ORDER:
        raise ValueError(
            f"field order {order} exceeds the supported {MAX_ORDER}")
    if order < 2:
        raise ValueError(f"field order must be at least 2, got {order}")
    p = None
    for d in range(2, int(order**0.5) + 1):
        if order % d == 0:
            p = d
            break
    if p is None:
        return order, 1
    t, r = order, 0
    while t % p == 0:
        t //= p
        r += 1
    if t != 1:
        raise ValueError(f"{order} is not a prime power")
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
        p, r = check_order(order)
        self.p, self.r, self.order = p, r, order
        if modulus is None and r > 1:
            modulus = DEFAULT_MODULI.get(order) or _find_irreducible(p, r)
        if modulus is not None:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != r + 1 or modulus[-1] != 1:
                raise ValueError(
                    f"modulus must be monic of degree {r} over GF({p})")
            if not _is_irreducible(modulus, p):
                raise ValueError(
                    f"reducible modulus {modulus} for GF({order})")
        # every monic degree-1 modulus gives the same prime field
        self.modulus = modulus if r > 1 else None

        digits = np.zeros((order, r), dtype=np.int64)
        v = np.arange(order)
        for i in range(r):
            digits[:, i] = v % p
            v = v // p
        self._digits = digits

        antilog, log = self._log_tables()
        self._build_tables(antilog, log)
        self.trace_table = self._build_trace(antilog, log)
        self.char_table = np.exp(2j * cmath.pi * self.trace_table / p)
        for arr in (self._digits, self.add_table, self.mul_table,
                    self.neg_table, self.inv_table, self.trace_table,
                    self.char_table):
            arr.setflags(write=False)

    # -- construction helpers ------------------------------------------------

    def _times(self, g: int) -> np.ndarray:
        """Symbol of g*v for every symbol v.

        Multiplication by g is GF(p)-linear on the digit vectors; row j of
        its r x r matrix holds the digits of g*x^j, reduced by the modulus.
        """
        p, r = self.p, self.r
        row = [int(d) for d in self._digits[g]]
        rows = [row]
        for _ in range(r - 1):
            top = row[-1]   # x^r = -(m_0 + m_1 x + ... + m_{r-1} x^{r-1})
            row = [(c - top * m) % p for c, m in zip([0] + row[:-1], self.modulus)]
            rows.append(row)
        return ((self._digits @ np.array(rows)) % p) @ (p ** np.arange(r))

    def _log_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Antilog and log tables of the smallest primitive symbol g.

        antilog[0] = 0 and antilog[1 + k] = g^k for k < s - 1; log[g^k] = k
        (log[0] is unused).  So x^e = antilog[1 + e log(x) mod (s-1)] for
        x != 0.
        """
        s = self.order
        dtype = np.min_scalar_type(s - 1)
        for g in range(1, s):
            times_g = self._times(g).tolist()
            powers = [1]
            while (nxt := times_g[powers[-1]]) != 1:
                powers.append(nxt)
            if len(powers) == s - 1:
                break
        else:  # pragma: no cover - every finite field has a primitive element
            raise AssertionError("no primitive element")
        antilog = np.array([0] + powers, dtype=dtype)
        log = np.zeros(s, dtype=np.uint16)
        log[powers] = np.arange(s - 1)
        return antilog, log

    def _build_tables(self, antilog: np.ndarray, log: np.ndarray):
        p, r, s = self.p, self.r, self.order
        dtype = antilog.dtype
        # addition is digitwise mod p; two digits sum below 2p <= 2 * 4096
        digs = self._digits.astype(np.uint16)
        add = np.zeros((s, s), dtype=np.uint16)
        for i in range(r):
            t = np.add.outer(digs[:, i], digs[:, i])
            t %= p
            t *= p**i
            add += t
        self.add_table = add.astype(dtype, copy=False)
        self.neg_table = (((-self._digits) % p) @ (p ** np.arange(r))).astype(dtype)
        # g^a g^b = g^((a + b) mod (s-1)); index 0 of antilog is the zero product
        idx = np.add.outer(log, log)
        idx %= s - 1
        idx += 1
        idx[0, :] = idx[:, 0] = 0
        self.mul_table = antilog[idx]
        inv = antilog[(s - 1 - log) % (s - 1) + 1]
        inv[0] = 0
        self.inv_table = inv

    def _build_trace(self, antilog: np.ndarray, log: np.ndarray) -> np.ndarray:
        """Tr(x) = x + x^p + ... + x^(p^(r-1)), the powers through the logs."""
        p, s = self.p, self.order
        frob = antilog[(p * log.astype(np.int64)) % (s - 1) + 1]
        frob[0] = 0
        acc = xi = np.arange(s)
        for _ in range(self.r - 1):
            xi = frob[xi]
            acc = self.add_table[acc, xi]
        if (acc >= p).any():
            raise AssertionError("trace left the prime subfield")
        return acc.astype(np.int64)

    # -- scalar arithmetic ---------------------------------------------------

    def add(self, x: int, y: int) -> int:
        return int(self.add_table[x, y])

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def neg(self, x: int) -> int:
        return int(self.neg_table[x])

    def mul(self, x: int, y: int) -> int:
        return int(self.mul_table[x, y])

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a finite field")
        return int(self.inv_table[x])

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

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

    Returns an (s^n, n) integer array whose rows are the points; raises
    ValueError when s^n exceeds MAX_ORDER.
    """
    s = field.order
    idx = np.arange(point_count(s, n), dtype=np.int64)
    return idx[:, None] // s ** np.arange(n - 1, -1, -1, dtype=np.int64) % s


def point_count(s: int, n: int, max_points: int = MAX_ORDER) -> int:
    """s^n, the number of points of F_s^n; raises ValueError above
    max_points.  It reads the field order alone, so a caller can check
    the point count before it builds the field."""
    if n < 1:
        raise ValueError("need at least one coordinate")
    if s**n > max_points:
        raise ValueError(f"{s}^{n} points exceed the supported {max_points}")
    return s**n
