"""Property tests for the field laws of GF(2^n), n = 1..12 and PEPS_POLY."""

from functools import cache

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given
from hypothesis import strategies as st

from suzuki2.gf2n import MAX_DEGREE, PEPS_POLY, FieldContext, poly_mod, poly_mul

# (degree, modulus); None picks the default primitive polynomial
MODULI = [(n, None) for n in range(1, MAX_DEGREE + 1)] + [(6, PEPS_POLY)]


@cache
def field(n, poly):
    return FieldContext(n, poly)


@st.composite
def elements(draw, count):
    """A field of MODULI and count of its elements, zero allowed."""
    ctx = field(*draw(st.sampled_from(MODULI)))
    xs = draw(st.lists(st.integers(0, ctx.size - 1), min_size=count, max_size=count))
    return (ctx, *xs)


@given(elements(3))
def test_ring_laws(args):
    ctx, x, y, z = args
    mul = ctx.mul
    assert mul(x, y) == mul(y, x)
    assert mul(mul(x, y), z) == mul(x, mul(y, z))
    assert mul(x, y ^ z) == mul(x, y) ^ mul(x, z)
    assert mul(x, 1) == x and mul(x, 0) == 0


@given(elements(2))
def test_product_is_the_reduced_polynomial_product(args):
    ctx, x, y = args
    assert ctx.mul(x, y) == poly_mod(poly_mul(x, y), ctx.poly)


@given(elements(1))
def test_nonzero_elements_are_units(args):
    ctx, x = args
    if x == 0:
        return
    assert ctx.mul(x, ctx.inv(x)) == 1
    assert ctx.pow(x, ctx.size - 1) == 1
    assert ctx.pow(x, -1) == ctx.inv(x)
    assert (ctx.size - 1) % ctx.multiplicative_order(x) == 0


@given(elements(1), st.integers(0, 40), st.integers(0, 40))
def test_powers_add_exponents(args, a, b):
    ctx, x = args
    assert ctx.pow(x, a + b) == ctx.mul(ctx.pow(x, a), ctx.pow(x, b))


@given(elements(2), st.integers(0, 2 * MAX_DEGREE))
def test_frobenius_is_a_field_automorphism_of_order_n(args, k):
    ctx, x, y = args
    frob = ctx.frobenius
    assert frob(x ^ y, k) == frob(x, k) ^ frob(y, k)
    assert frob(ctx.mul(x, y), k) == ctx.mul(frob(x, k), frob(y, k))
    assert frob(x, k) == ctx.pow(x, 1 << (k % ctx.n))
    assert frob(x, ctx.n) == x
