"""Arithmetic in GF(2^n) for n <= 12.

Elements are plain ints used as coefficient bitmasks: bit i holds the
coefficient of x^i. A field is GF(2)[x] modulo an irreducible degree-n
polynomial, itself an (n+1)-bit mask with bit n set.

Default moduli are the lexicographically smallest primitive polynomial
per degree (smallest mask value whose root generates the multiplicative
group):

    n:  1     2     3     4     5     6     7     8      9      10     11     12
    p:  0x3   0x7   0xB   0x13  0x25  0x43  0x83  0x11D  0x211  0x409  0x805  0x1053

Subfields are represented inside the big field as the fixed points of
x -> x^(2^m); there is no separate small-field element type.

Each FieldContext multiplies through exp/log tables of a generator of
the multiplicative group, built once per context from the bit-serial
product poly_mod(poly_mul(x, y), poly).
"""

from math import gcd

from .errors import BadDegree, BadSubfield, DivisionByZero, PolynomialNotIrreducible

MAX_DEGREE = 12

DEFAULT_POLYS = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11D,
    9: 0x211,
    10: 0x409,
    11: 0x805,
    12: 0x1053,
}

# The P(eps) scenarios override the degree-6 default with this modulus,
# the minimal polynomial x^6 + x^4 + x^3 + x + 1 of the generator eps.
PEPS_POLY = 0x5B


def poly_degree(mask):
    """Degree of a GF(2)[x] polynomial given as a bitmask (-1 for 0)."""
    return mask.bit_length() - 1


def poly_mul(a, b):
    """Carryless product of two GF(2)[x] bitmasks."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a, m):
    """Remainder of a modulo m in GF(2)[x]."""
    dm = poly_degree(m)
    while poly_degree(a) >= dm:
        a ^= m << (poly_degree(a) - dm)
    return a


def is_irreducible(mask):
    """Irreducibility over GF(2) by trial division up to half the degree."""
    n = poly_degree(mask)
    if n <= 0:
        return False
    for d in range(1, n // 2 + 1):
        for q in range(1 << d, 1 << (d + 1)):
            if poly_mod(mask, q) == 0:
                return False
    return True


def poly_to_hex(mask):
    return format(mask, "#x").upper().replace("0X", "0x")


def _power_tables(n, poly):
    """exp and log tables of the smallest generator of GF(2^n)*.

    The generator is x when poly is primitive. A candidate b generates
    the group of order m = 2^n-1 exactly when 1, b, ..., b^(m-1) are
    distinct, i.e. when its power walk, by the bit-serial product, does
    not return to 1 before step m. exp holds two periods of the powers,
    so exp[i + j] needs no reduction for logarithms i, j < m.
    """
    order = (1 << n) - 1
    for base in (0b10 if n > 1 else 1, *range(3, order + 1)):
        exp = [0] * (2 * order)
        log = [0] * (order + 1)
        x = 1
        for k in range(order):
            if k and x == 1:
                break
            exp[k] = exp[k + order] = x
            log[x] = k
            x = poly_mod(poly_mul(x, base), poly)
        else:
            return exp, log


class FieldContext:
    """Immutable GF(2^n) context; all operations are pure functions on ints."""

    def __init__(self, n: int, poly: int | None = None):
        if not 1 <= n <= MAX_DEGREE:
            raise BadDegree(f"extension degree must be in 1..{MAX_DEGREE}, got {n}")
        if poly is None:
            poly = DEFAULT_POLYS[n]
        if poly_degree(poly) != n:
            raise BadDegree(
                f"modulus {poly_to_hex(poly)} has degree {poly_degree(poly)}, expected {n}"
            )
        if not is_irreducible(poly):
            raise PolynomialNotIrreducible(f"{poly_to_hex(poly)} is reducible over GF(2)")
        self.n = n
        self.poly = poly
        self.size = 1 << n
        # class of x, the canonical primitive element candidate
        self.t = 0b10 if n > 1 else 1
        self._exp, self._log = _power_tables(n, poly)

    def __repr__(self):
        return f"FieldContext(n={self.n}, poly={poly_to_hex(self.poly)})"

    def __eq__(self, other):
        return (
            isinstance(other, FieldContext)
            and self.n == other.n
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.n, self.poly))

    def check(self, x):
        if not isinstance(x, int) or not 0 <= x < self.size:
            raise ValueError(f"{x!r} is not an element of GF(2^{self.n})")
        return x

    def mul(self, x, y):
        """x * y by discrete logarithms.

        GF(2^n)* is cyclic of order 2^n-1 with generator g, so each
        nonzero x is g^log[x] for exactly one log[x] in [0, 2^n-2], and
        x * y = g^(log[x] + log[y]) = exp[log[x] + log[y]]; the sum is at
        most 2(2^n-2), inside exp's two periods. A zero factor gives 0.
        The tables are built from the bit-serial product, and tests
        compare the two on every pair of small fields.
        """
        if x and y:
            return self._exp[self._log[x] + self._log[y]]
        return 0

    def inv(self, x):
        if x == 0:
            raise DivisionByZero("0 has no multiplicative inverse")
        return self.pow(x, self.size - 2)

    def pow(self, x, e):
        if e < 0:
            return self.pow(self.inv(x), -e)
        r = 1
        b = x
        while e:
            if e & 1:
                r = self.mul(r, b)
            b = self.mul(b, b)
            e >>= 1
        return r

    def frobenius(self, x, k=1):
        """x -> x^(2^k); the Galois group is generated by k = 1."""
        for _ in range(k % self.n):
            x = self.mul(x, x)
        return x

    def trace_to_subfield(self, x, m):
        """Relative trace onto the fixed field of x -> x^(2^m); needs m | n."""
        if m <= 0 or self.n % m != 0:
            raise BadSubfield(f"GF(2^{m}) is not a subfield of GF(2^{self.n})")
        acc = y = x
        for _ in range(self.n // m - 1):
            y = self.frobenius(y, m)
            acc ^= y
        return acc

    def multiplicative_order(self, x):
        """Least k >= 1 with x^k = 1.

        x = g^log[x] in the cyclic group of order m = 2^n-1, and g^j has
        order m / gcd(j, m).
        """
        if x == 0:
            raise DivisionByZero("0 has no multiplicative order")
        m = self.size - 1
        return m // gcd(self._log[x], m)

    def is_generator(self, x):
        return x != 0 and self.multiplicative_order(x) == self.size - 1

    def minimal_polynomial(self, x):
        """Monic minimal polynomial of x over GF(2), as a bitmask.

        Computed as the product of (X + c) over the distinct Frobenius
        conjugates c of x; every coefficient must land in GF(2).
        """
        if x == 0:
            return 0b10  # X
        conjugates = []
        c = x
        while c not in conjugates:
            conjugates.append(c)
            c = self.frobenius(c, 1)
        # polynomial with coefficients in the big field, low degree first
        coeffs = [1]
        for c in conjugates:
            nxt = [0] * (len(coeffs) + 1)
            for i, a in enumerate(coeffs):
                nxt[i + 1] ^= a  # X * a
                nxt[i] ^= self.mul(a, c)
            coeffs = nxt
        mask = 0
        for i, a in enumerate(coeffs):
            if a not in (0, 1):
                raise AssertionError("minimal polynomial has a coefficient outside GF(2)")
            mask |= a << i
        return mask

