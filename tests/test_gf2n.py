import random

import pytest

from suzuki2.errors import BadDegree, BadSubfield, DivisionByZero, PolynomialNotIrreducible
from suzuki2.gf2n import (
    DEFAULT_POLYS,
    PEPS_POLY,
    FieldContext,
    is_irreducible,
    poly_mod,
    poly_mul,
)


def naive_mul(x, y, poly, n):
    # independent oracle: schoolbook carryless multiply + long division
    prod = 0
    for i in range(n):
        if (x >> i) & 1:
            prod ^= y << i
    for d in range(prod.bit_length() - 1, n - 1, -1):
        if (prod >> d) & 1:
            prod ^= poly << (d - n)
    return prod


def test_default_polys_are_primitive():
    for n, p in DEFAULT_POLYS.items():
        assert p.bit_length() - 1 == n
        assert is_irreducible(p)
        ctx = FieldContext(n, p)
        assert ctx.is_generator(ctx.t)


def test_default_polys_are_smallest():
    # masks without a constant term have the root 0, never a generator
    for n, p in DEFAULT_POLYS.items():
        for mask in range((1 << n) | 1, p, 2):
            if is_irreducible(mask):
                ctx = FieldContext(n, mask)
                assert not ctx.is_generator(ctx.t)


def test_peps_poly_irreducible_and_primitive():
    # x^6+x^4+x^3+x+1: the toolkit verifies primitivity instead of assuming it
    assert PEPS_POLY == 0x5B
    assert is_irreducible(PEPS_POLY)
    ctx = FieldContext(6, PEPS_POLY)
    assert ctx.is_generator(ctx.t)


def test_create_rejects_reducible():
    with pytest.raises(PolynomialNotIrreducible):
        FieldContext(3, 0xF)  # x^3+x^2+x+1 = (x+1)(x^2+x+1)


def test_create_rejects_bad_degree():
    with pytest.raises(BadDegree):
        FieldContext(3, 0x13)
    with pytest.raises(BadDegree):
        FieldContext(13)
    with pytest.raises(BadDegree):
        FieldContext(0)


def test_gf8_basics():
    ctx = FieldContext(3)
    assert ctx.poly == 0xB
    t = ctx.t
    assert ctx.mul(t, t) == 0b100
    assert ctx.pow(t, 3) == 0b011
    assert ctx.inv(t) == 0b101
    assert ctx.mul(t, 0b101) == 1
    assert ctx.multiplicative_order(t) == 7
    assert ctx.is_generator(t)


def test_inv_zero_raises():
    ctx = FieldContext(3)
    with pytest.raises(DivisionByZero):
        ctx.inv(0)
    with pytest.raises(DivisionByZero):
        ctx.multiplicative_order(0)


def test_mul_against_naive_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 6, 8, 9, 10, 11, 12):
        ctx = FieldContext(n)
        for _ in range(200):
            x = rng.randrange(ctx.size)
            y = rng.randrange(ctx.size)
            assert ctx.mul(x, y) == naive_mul(x, y, ctx.poly, n)


def test_field_axioms_small():
    ctx = FieldContext(3)
    els = range(8)
    for x in els:
        assert ctx.mul(x, 1) == x
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
        for y in els:
            assert ctx.mul(x, y) == ctx.mul(y, x)
            for z in els:
                assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
                assert ctx.mul(x, y ^ z) == ctx.mul(x, y) ^ ctx.mul(x, z)


def test_frobenius_is_field_automorphism():
    rng = random.Random(11)
    for n in (3, 4, 6):
        ctx = FieldContext(n)
        for k in range(n + 2):
            for _ in range(100):
                x = rng.randrange(ctx.size)
                y = rng.randrange(ctx.size)
                assert ctx.frobenius(x ^ y, k) == ctx.frobenius(x, k) ^ ctx.frobenius(y, k)
                assert ctx.frobenius(ctx.mul(x, y), k) == ctx.mul(
                    ctx.frobenius(x, k), ctx.frobenius(y, k)
                )
        for x in range(ctx.size):
            assert ctx.frobenius(x, n) == x


def test_frobenius_gf8_examples():
    ctx = FieldContext(3)
    t = ctx.t
    assert ctx.frobenius(t, 1) == ctx.mul(t, t)
    assert ctx.frobenius(t ^ 1, 1) == 0b101  # (t+1)^2 = t^2+1


def test_trace_gf8_to_gf2():
    ctx = FieldContext(3)
    assert ctx.trace_to_subfield(0, 1) == 0
    assert ctx.trace_to_subfield(1, 1) == 1
    assert ctx.trace_to_subfield(ctx.t, 1) == 0
    with pytest.raises(BadSubfield):
        ctx.trace_to_subfield(1, 2)


def test_trace_additive_and_lands_in_subfield():
    rng = random.Random(3)
    ctx = FieldContext(6)
    for m in (1, 2, 3, 6):
        sub = set(ctx.subfield_elements(m))
        for _ in range(150):
            x = rng.randrange(ctx.size)
            y = rng.randrange(ctx.size)
            tx = ctx.trace_to_subfield(x, m)
            assert tx in sub
            assert ctx.trace_to_subfield(x ^ y, m) == tx ^ ctx.trace_to_subfield(y, m)
            # invariance under the generating Galois twist
            assert ctx.trace_to_subfield(ctx.frobenius(x, m), m) == tx


def test_subfield_sizes():
    ctx = FieldContext(6)
    assert len(ctx.subfield_elements(1)) == 2
    assert len(ctx.subfield_elements(2)) == 4
    assert len(ctx.subfield_elements(3)) == 8
    assert len(ctx.subfield_elements(6)) == 64
    with pytest.raises(BadSubfield):
        ctx.subfield_elements(4)


def test_order_divides_group_order():
    for n in (3, 4, 5, 6):
        ctx = FieldContext(n)
        for x in range(1, ctx.size):
            assert (ctx.size - 1) % ctx.multiplicative_order(x) == 0


def test_generator_count_matches_euler_phi():
    from math import gcd

    for n in range(1, 9):
        ctx = FieldContext(n)
        q = ctx.size - 1
        phi = sum(1 for k in range(1, q + 1) if gcd(k, q) == 1)
        count = sum(1 for x in range(1, ctx.size) if ctx.is_generator(x))
        assert count == phi


def test_minimal_polynomial():
    ctx = FieldContext(3)
    assert ctx.minimal_polynomial(0) == 0b10
    assert ctx.minimal_polynomial(1) == 0b11
    assert ctx.minimal_polynomial(ctx.t) == 0xB
    assert ctx.minimal_polynomial(ctx.mul(ctx.t, ctx.t)) == 0xB  # conjugate of t


def test_minimal_polynomial_annihilates_and_divides():
    ctx = FieldContext(6, PEPS_POLY)
    field_poly = (1 << 64) | 0b10  # X^64 + X
    for x in range(ctx.size):
        m = ctx.minimal_polynomial(x)
        n = m.bit_length() - 1
        assert ctx.n % n == 0
        # m(x) = 0 evaluated in the field
        acc = 0
        for i in range(n + 1):
            if (m >> i) & 1:
                acc ^= ctx.pow(x, i)
        assert acc == 0
        assert poly_mod(field_poly, m) == 0
    # conjugates share the minimal polynomial
    eps = ctx.t
    assert ctx.minimal_polynomial(eps) == PEPS_POLY
    assert ctx.minimal_polynomial(ctx.frobenius(eps, 1)) == PEPS_POLY


def test_pow_negative_exponent():
    ctx = FieldContext(4)
    t = ctx.t
    assert ctx.mul(ctx.pow(t, -1), t) == 1
    assert ctx.pow(t, -3) == ctx.inv(ctx.pow(t, 3))


# moduli whose exp/log tables are checked exhaustively; 0x1F is irreducible
# but not primitive (x has order 5 in GF(16)), so its tables use another base
TABLE_MODULI = ((3, 0xB), (4, 0x13), (6, PEPS_POLY), (4, 0x1F))


def bit_serial_mul(x, y, poly):
    """The carryless multiply and reduction FieldContext.mul replaced."""
    return poly_mod(poly_mul(x, y), poly)


def power_walk_order(x, poly):
    """Least k >= 1 with x^k = 1, by walking the powers of x."""
    k, acc = 1, x
    while acc != 1:
        acc = bit_serial_mul(acc, x, poly)
        k += 1
    return k


def test_table_modulus_kinds():
    assert all(is_irreducible(p) for _, p in TABLE_MODULI)
    assert power_walk_order(0b10, 0x1F) == 5
    ctx = FieldContext(4, 0x1F)
    assert not ctx.is_generator(0b10)
    assert ctx.multiplicative_order(0b10) == 5


def test_table_mul_matches_bit_serial_on_all_pairs():
    for n, poly in TABLE_MODULI:
        ctx = FieldContext(n, poly)
        for x in range(ctx.size):
            for y in range(ctx.size):
                assert ctx.mul(x, y) == bit_serial_mul(x, y, poly), (poly, x, y)


def test_multiplicative_order_matches_power_walk():
    for n, poly in TABLE_MODULI:
        ctx = FieldContext(n, poly)
        for x in range(1, ctx.size):
            want = power_walk_order(x, poly)
            assert ctx.multiplicative_order(x) == want, (poly, x)
            assert ctx.is_generator(x) == (want == ctx.size - 1)
