import itertools
import math

import numpy as np
import pytest

from ssd.gf import (AFFINE_MAX_ORDER, DEFAULT_MODULI, MAX_ORDER, Field,
                    _poly_mod, default_field, enumerate_points)
from ssd.oracle import poly_mul

ALL_ORDERS = [2, 3, 4, 5, 7, 8, 9]


def test_prime_field_needs_no_modulus(gf3):
    assert gf3.p == 3 and gf3.r == 1 and gf3.modulus is None


def test_prime_field_modulus_is_checked():
    # any monic degree-1 modulus gives the prime field itself
    assert Field(3, (2, 1)).modulus is None
    assert Field(5, (0, 1)).modulus is None
    for bad in ((1, 1, 1), (1, 2), (1,)):
        with pytest.raises(ValueError,
                           match=r"^modulus must be monic of degree 1 over GF\(3\)$"):
            Field(3, bad)


def test_gf4_default_modulus_is_the_unique_irreducible_quadratic():
    # over GF(2) the only monic irreducible degree-2 polynomial is x^2+x+1
    assert DEFAULT_MODULI[4] == (1, 1, 1)
    for tail in itertools.product(range(2), repeat=2):
        cand = tail + (1,)
        if cand != (1, 1, 1):
            with pytest.raises(ValueError, match="reducible"):
                Field(4, cand)


def test_not_prime_power():
    with pytest.raises(ValueError, match="not a prime power"):
        Field(6)
    with pytest.raises(ValueError, match="not a prime power"):
        Field(12)


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError, match="reducible"):
        Field(9, (0, 0, 1))  # x^2
    with pytest.raises(ValueError, match="reducible"):
        Field(8, (0, 0, 0, 1))


def test_alternate_gf9_modulus():
    alt = Field(9, (1, 0, 1))  # x^2 + 1 is irreducible over GF(3)
    assert alt.mul(3, 3) == 2  # x * x = -1 = 2
    assert sorted(alt.mul(3, x) for x in alt.elements()) == list(range(9))


@pytest.mark.parametrize("s", ALL_ORDERS)
def test_field_axioms_exhaustive(s):
    f = default_field(s)
    els = list(f.elements())
    for x in els:
        assert f.add(x, 0) == x and f.mul(x, 1) == x
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    for x, y in itertools.product(els, els):
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
    for x, y, z in itertools.product(els[:4], els[:4], els):
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


def test_specific_arithmetic(gf3, gf4, gf5, gf9):
    assert gf3.add(1, 2) == 0
    assert gf4.add(2, 2) == 0
    assert gf9.add(1, 1) == 2
    assert gf5.mul(2, 3) == 1 and gf5.inv(2) == 3
    assert gf4.mul(2, 2) == 3          # x^2 = x + 1
    assert gf9.mul(3, 3) == 4          # x^2 = x + 1 -> symbol 4
    with pytest.raises(ZeroDivisionError):
        gf4.inv(0)


def test_trace_values(gf3, gf4, gf9):
    assert all(gf3.trace(x) == x for x in gf3.elements())
    assert gf4.trace(1) == 0 and gf4.trace(2) == 1
    assert gf9.trace(1) == 2


@pytest.mark.parametrize("s", ALL_ORDERS)
def test_trace_is_prime_linear(s):
    f = default_field(s)
    for x in f.elements():
        assert 0 <= f.trace(x) < f.p
        for y in f.elements():
            assert f.trace(f.add(x, y)) == (f.trace(x) + f.trace(y)) % f.p


def test_char_basic(gf2, gf3, gf4):
    assert gf2.char(0) == pytest.approx(1) and gf2.char(1) == pytest.approx(-1)
    import cmath
    assert gf3.char(1) == pytest.approx(cmath.exp(2j * cmath.pi / 3))
    assert abs(sum(gf4.char(x) for x in gf4.elements())) < 1e-9


@pytest.mark.parametrize("s", ALL_ORDERS)
def test_char_is_homomorphism(s):
    f = default_field(s)
    for x in f.elements():
        assert abs(f.char(x)) == pytest.approx(1.0)
        for y in f.elements():
            assert f.char(f.add(x, y)) == pytest.approx(f.char(x) * f.char(y))


@pytest.mark.parametrize("s", ALL_ORDERS)
def test_full_field_character_sum(s):
    # sum_x chi(a x) is s at a = 0 and vanishes otherwise
    f = default_field(s)
    for a in f.elements():
        total = sum(f.char(f.mul(a, x)) for x in f.elements())
        expect = s if a == 0 else 0
        assert abs(total - expect) < 1e-9


@pytest.mark.parametrize("s", ALL_ORDERS)
def test_character_orthonormality(s):
    f = default_field(s)
    for u in f.units():
        for v in f.units():
            total = sum(f.char(f.mul(u, x)) * f.char(f.mul(v, x)).conjugate()
                        for x in f.elements())
            assert abs(total - (s if u == v else 0)) < 1e-9


def test_enumerate_points(gf2, gf3, gf4):
    assert enumerate_points(gf2, 1).tolist() == [[0], [1]]
    pts = enumerate_points(gf3, 2)
    assert pts.shape == (9, 2)
    assert pts[:4].tolist() == [[0, 0], [0, 1], [0, 2], [1, 0]]
    assert enumerate_points(gf4, 3).shape == (64, 3)


def test_large_field_path():
    # orders above 25 carry the same dense tables as the small ones
    f = Field(27)
    assert f.add_table.shape == f.mul_table.shape == (27, 27)
    assert f.mul(1, 1) == 1
    x = 3  # the generator polynomial "x"
    assert f.mul(x, f.inv(x)) == 1
    assert 0 <= f.trace(5) < 3


def _monic_irreducibles(p, r):
    """Monic degree-r polynomials over GF(p) with no monic factor of degree <= r/2."""
    divisors = [list(t) + [1] for d in range(1, r // 2 + 1)
                for t in itertools.product(range(p), repeat=d)]
    return [tail + (1,) for tail in itertools.product(range(p), repeat=r)
            if all(_poly_mod(list(tail) + [1], d, p) != [0] for d in divisors)]


def _symbol(coeffs, p):
    return sum(c * p**i for i, c in enumerate(coeffs))


def _digits(v, p, r):
    return [(v // p**i) % p for i in range(r)]


def _check_tables_by_polynomials(f):
    """Every table entry against schoolbook polynomial arithmetic mod f.modulus."""
    p, r, s = f.p, f.r, f.order
    polys = [_digits(v, p, r) for v in range(s)]
    mod = list(f.modulus)
    for x in range(s):
        for y in range(s):
            prod = _poly_mod(poly_mul(polys[x], polys[y], p), mod, p)
            assert f.mul_table[x, y] == _symbol(prod, p)
            total = [(a + b) % p for a, b in zip(polys[x], polys[y])]
            assert f.add_table[x, y] == _symbol(total, p)
    for x in range(s):
        assert f.neg_table[x] == _symbol([-a % p for a in polys[x]], p)
        if x:
            assert f.mul_table[x, f.inv_table[x]] == 1


@pytest.mark.parametrize("s,p,r,count", [(27, 3, 3, 8), (32, 2, 5, 6)])
def test_tables_under_every_modulus(s, p, r, count):
    # Gauss's count of monic irreducibles: (3^3 - 3)/3 = 8, (2^5 - 2)/5 = 6
    moduli = _monic_irreducibles(p, r)
    assert len(moduli) == count
    for mod in moduli:
        _check_tables_by_polynomials(Field(s, mod))


@pytest.mark.parametrize("s", [49, 64])
def test_tables_default_modulus(s):
    _check_tables_by_polynomials(default_field(s))


@pytest.mark.parametrize("p", [2, 29, 31, 257])
def test_prime_field_tables(p):
    f = Field(p)
    a = np.arange(p)
    assert (f.add_table == (a[:, None] + a[None, :]) % p).all()
    assert (f.mul_table == (a[:, None] * a[None, :]) % p).all()
    assert (f.neg_table == -a % p).all()
    assert [int(f.inv_table[x]) for x in range(1, p)] == [
        pow(x, p - 2, p) for x in range(1, p)]


def test_table_dtype_and_read_only():
    assert Field(256).mul_table.dtype == np.uint8
    assert Field(257).mul_table.dtype == np.uint16
    f = Field(27)
    for table in (f.add_table, f.mul_table, f.neg_table, f.inv_table):
        assert not table.flags.writeable


@pytest.mark.parametrize("s", [2, 9, 27, 61, 64])
def test_affine_table_is_v_plus_c_x(s):
    f = Field(s)
    table = f.affine_table
    assert table.shape == (s, s, s) and table.dtype == f.add_table.dtype
    assert not table.flags.writeable
    assert f.affine_table is table            # built once per field
    c, v, x = np.random.default_rng(s).integers(s, size=(3, 500))
    assert (table[c, v, x] == f.add_table[v, f.mul_table[c, x]]).all()


def test_affine_table_stops_at_64():
    # a whole grid of s^n <= MAX_ORDER points with n >= 2 has s <= 64
    assert AFFINE_MAX_ORDER**2 == MAX_ORDER
    with pytest.raises(ValueError, match="67\\^3 entries"):
        Field(67).affine_table


def test_order_limit():
    assert MAX_ORDER == 4096
    with pytest.raises(ValueError, match="exceeds the supported 4096"):
        Field(4099)
    with pytest.raises(ValueError, match="exceeds the supported 4096"):
        Field(2**13)
