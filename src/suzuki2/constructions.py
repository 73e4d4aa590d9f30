"""Builders for the concrete 2-group families.

Three exponent-4 families are built on field-pair labels:

  - a2(n, k): labels (a, b) over GF(2^n)^2 with product
    (a, b)(c, d) = (a+c, b+d+a*c^theta), theta = (x -> x^(2^k)),
    the unitriangular matrix group with rows (1 a b / 0 1 a^theta / 0 0 1).
  - b2(n): labels (a, b) over GF(2^(2n))^2 restricted to the unitary
    constraint b + b^q + a^(1+q) = 0 (q = 2^n), same triangular product
    with theta = (x -> x^q).
  - p_epsilon(poly): labels (a, x), a over GF(2^6), x in its GF(8)
    subfield, second coordinate twisted by the cocycle Tr(a*b^2*eps)
    where Tr(u) = u + u^8 and eps generates the multiplicative group.

Homocyclic and generalized quaternion groups cover the remaining cases
of the classification the verification scenarios exercise.

The a2, b2 and P(eps) rules share one shape, (a, b)(c, d) =
(a+c, b+d+f(a, c)), and all three builders go through _cocycle_group:
it certifies that the cocycle f is biadditive, which makes the rule
associative (see _cocycle_rule), closes the generators with
groups.closure(..., certified=True) and checks the order. That
certificate is the table's associativity proof: these tables skip
Light's test (see groups.FiniteGroup._certified) and keep the identity,
inverse and generation checks. The homocyclic and quaternion rules are
associative by argument only, so their tables still get Light's test.

Each builder tags the group's meta dict with the family name and the
field context. Generator i of a cocycle group has a-part 1 << i, so the
generators are a basis of V = G/Z, which FiniteGroup.special reads off
the table.
"""

from math import gcd
from operator import xor

from .errors import (
    BadEpsilon,
    BadFormat,
    BadTheta,
    GroupTooLarge,
    NotAGroup,
    Unsupported,
)
from .gf2n import PEPS_POLY, FieldContext
from .groups import ORDER_CAP, closure


def theta_order(n, k):
    """Order of x -> x^(2^k) as a field automorphism of GF(2^n)."""
    return n // gcd(n, k % n) if k % n else 1


def _cocycle_rule(f):
    """Product (a, b)(c, d) = (a+c, b+d+f(a, c)) on pairs of bit vectors.

    The a2, b2 and P(eps) families all multiply this way. The rule is
    associative exactly when f(a, c) + f(a+c, e) = f(c, e) + f(a, c+e) for
    all a, c, e; a biadditive f gives f(a, c) + f(a, e) + f(c, e) on both
    sides, and f(0, c) = f(a, 0) = 0 makes (0, 0) the identity. So once
    _check_biadditive(f, dim) passes, the rule meets the precondition of
    groups.closure.
    """

    def rule(p, q):
        a, b = p
        c, d = q
        return (a ^ c, b ^ d ^ f(a, c))

    return rule


def _check_biadditive(f, dim):
    """Raise NotAGroup unless f is GF(2)-bilinear on GF(2)^dim x GF(2)^dim.

    A map of bit vectors is biadditive over GF(2) iff it equals its
    bilinear expansion B(a, c) = sum of f(e_i, e_j) over the bits i of a
    and j of c. B is built row by row with the lowest set bit taken off:
    B(e_i, c) = B(e_i, c - low(c)) + f(e_i, low(c)) for a basis row, and
    B(a, c) = B(a - low(a), c) + B(low(a), c) otherwise. Comparing f with
    B on every pair costs 2^(2 dim) evaluations of f and no more.
    """
    size = 1 << dim
    basis = [[f(1 << i, 1 << j) for j in range(dim)] for i in range(dim)]
    rows = [[0] * size]
    for a in range(1, size):
        low = a & -a
        if a == low:
            f_a = basis[low.bit_length() - 1]
            row = [0] * size
            for c in range(1, size):
                low_c = c & -c
                row[c] = row[c ^ low_c] ^ f_a[low_c.bit_length() - 1]
        else:
            row = list(map(xor, rows[a ^ low], rows[low]))
        rows.append(row)
    for a, row in enumerate(rows):
        for c, want in enumerate(row):
            if f(a, c) != want:
                raise NotAGroup(f"cocycle is not biadditive at ({a}, {c})")


def _cocycle_group(f, dim, order, meta, second=lambda a: 0):
    """Closure of the seeds (e, second(e)), e = 1 << i, i < dim, under the
    cocycle rule of f, tagged with meta.

    f is certified biadditive before anything else runs (second included),
    so the rule meets the precondition of groups.closure, and closure is
    told so (certified=True): the certificate stands in for Light's test
    on the table, which FiniteGroup._certified then skips. A cocycle that
    is not biadditive raises NotAGroup before any table is built; a
    closure whose order is not the given one raises NotAGroup.
    """
    _check_biadditive(f, dim)
    seeds = [(1 << i, second(1 << i)) for i in range(dim)]
    g = closure(seeds, _cocycle_rule(f), (0, 0), meta=meta, certified=True)
    if g.order != order:
        raise NotAGroup(f"closure produced order {g.order}, not {order}")
    return g


def build_a2(n, k):
    """Exponent-4 group of order 2^(2n) twisted by theta = x -> x^(2^k)."""
    ctx = FieldContext(n)
    order_theta = theta_order(n, k)
    if order_theta == 1 or order_theta % 2 == 0:
        raise BadTheta(
            f"theta order {order_theta} must be odd and larger than 1"
        )
    mul = ctx.mul
    frob = [ctx.frobenius(x, k) for x in range(ctx.size)]
    return _cocycle_group(
        lambda a, c: mul(a, frob[c]), n, 1 << (2 * n),
        {"family": "a2", "n": n, "k": k, "ctx": ctx},
    )


def build_b2(n):
    """Unitary-constraint group of order 2^(3n) over GF(2^(2n))."""
    if n < 1:
        raise Unsupported("n must be at least 1")
    if 1 << (3 * n) > ORDER_CAP:
        raise GroupTooLarge(f"order 2^{3 * n} exceeds cap {ORDER_CAP}")
    ctx = FieldContext(2 * n)
    mul = ctx.mul
    frob = [ctx.frobenius(x, n) for x in range(ctx.size)]
    # trace[b] = b + b^q maps GF(q^2) onto GF(q), which holds the norm
    # a^(1+q), so index finds the smallest b meeting the constraint
    trace = [b ^ frob[b] for b in range(ctx.size)]
    g = _cocycle_group(
        lambda a, c: mul(a, frob[c]), 2 * n, 1 << (3 * n),
        {"family": "b2", "n": n, "ctx": ctx},
        second=lambda a: trace.index(mul(a, frob[a])),
    )
    for a, b in g.labels:
        if trace[b] != mul(a, frob[a]):
            raise NotAGroup(f"element ({a}, {b}) violates the unitary constraint")
    return g


def _trace_cocycle(ctx, eps):
    """Table of Tr(a*b^2*eps) over GF(2^6), Tr(u) = u + u^8, indexed [a][b]."""
    mul = ctx.mul
    return [
        [ctx.trace_to_subfield(mul(mul(a, mul(b, b)), eps), 3) for b in range(64)]
        for a in range(64)
    ]


def build_p_epsilon(poly=PEPS_POLY, eps=None):
    """Order-512 group on GF(2^6) x GF(8) twisted by the trace cocycle.

    eps picks the multiplier inside the cocycle; it defaults to the class
    of x and must generate the multiplicative group, or the second
    coordinate gains non-central involutions and the family is lost.
    """
    ctx = FieldContext(6, poly)
    if eps is None:
        eps = ctx.t
    ctx.check(eps)
    if not ctx.is_generator(eps):
        raise BadEpsilon(
            f"{hex(eps)} mod {hex(poly)} does not generate the multiplicative group"
        )
    cocycle = _trace_cocycle(ctx, eps)
    return _cocycle_group(
        lambda a, b: cocycle[a][b], 6, 512,
        {"family": "peps", "poly": poly, "ctx": ctx, "eps": eps},
    )


def build_homocyclic(m, exponent):
    """Direct power of m cyclic groups of order 2^k.

    The rule adds coordinates modulo the exponent, the product in the
    direct power of Z/exponent, so it is associative with identity zero,
    as groups.closure requires.
    """
    if m < 1 or exponent < 2 or exponent & (exponent - 1):
        raise Unsupported("rank must be >= 1 and exponent a power of 2")
    if exponent**m > ORDER_CAP:
        raise GroupTooLarge(f"order {exponent**m} exceeds cap {ORDER_CAP}")

    def rule(p, q):
        return tuple((x + y) % exponent for x, y in zip(p, q))

    seeds = [
        tuple(1 if j == i else 0 for j in range(m)) for i in range(m)
    ]
    return closure(
        seeds,
        rule,
        tuple([0] * m),
        meta={"family": "homocyclic", "rank": m, "exponent": exponent},
    )


def build_generalized_quaternion(order):
    """Two-generator group with x^(order/2) = y^2 and x^y = x^-1.

    The label (i, j) stands for x^i y^j, with m = order/2. In that group
    y^j x^k = x^((-1)^j k) y^j, and y^2 = x^(m/2) is central, so
    x^i y^j x^k y^l = x^(i + (-1)^j k + (m/2)[j and l]) y^(j xor l), which
    is the rule. It is the multiplication of the dicyclic group in this
    normal form (a bijection onto its 2m elements), hence associative with
    identity (0, 0), as groups.closure requires.
    """
    if order < 8 or order & (order - 1):
        raise Unsupported("order must be a power of 2, at least 8")
    if order > ORDER_CAP:
        raise GroupTooLarge(f"order {order} exceeds cap {ORDER_CAP}")
    m = order // 2
    half = m // 2

    def rule(p, q):
        i, j = p
        k, l = q
        s = (i + (k if j == 0 else -k)) % m
        if j and l:
            s = (s + half) % m
        return (s, j ^ l)

    return closure(
        [(1, 0), (0, 1)],
        rule,
        (0, 0),
        meta={"family": "quaternion", "order": order},
    )


def build_family(spec):
    """Build from a family specifier like a2:3:1, b2:2, peps, hc:2:4, q:16."""
    parts = spec.split(":")
    name, args = parts[0], parts[1:]
    try:
        if name == "a2" and len(args) == 2:
            return build_a2(int(args[0]), int(args[1]))
        if name == "b2" and len(args) == 1:
            return build_b2(int(args[0]))
        if name == "peps" and len(args) <= 1:
            return build_p_epsilon(int(args[0], 16) if args else PEPS_POLY)
        if name == "hc" and len(args) == 2:
            return build_homocyclic(int(args[0]), int(args[1]))
        if name == "q" and len(args) == 1:
            return build_generalized_quaternion(int(args[0]))
    except ValueError as exc:
        raise BadFormat(f"bad family specifier {spec!r}") from exc
    raise BadFormat(f"unknown family specifier {spec!r}")


PRESENTATION_SQUARES = {
    1: (2,),
    2: (2, 3),
    3: (2,),
    4: (3,),
    5: (1, 2, 3),
    6: (3,),
}

PRESENTATION_COMMUTATORS = {
    (1, 2): (1, 2),
    (1, 3): (1, 3),
    (1, 4): (3,),
    (1, 5): (2,),
    (1, 6): (),
    (2, 3): (1,),
    (2, 4): (1,),
    (2, 5): (2, 3),
    (2, 6): (1, 2, 3),
    (3, 4): (2,),
    (3, 5): (1, 2),
    (3, 6): (1, 2),
    (4, 5): (2, 3),
    (4, 6): (1,),
    (5, 6): (2,),
}


def _z_value(zb, js):
    """Second coordinate of z_j1 z_j2 ..., where z_j = (0, zb[j-1])."""
    acc = 0
    for j in js:
        acc ^= zb[j - 1]
    return acc


def _x_and_z_ids(group):
    """Ids of x_i = (eps^(i-1), 0), i = 1..6, and of z_j = (0, zb[j-1]),
    and zb, zb[j-1] = eps^(9(j-1)) for j = 1..3."""
    ctx, eps = group.meta["ctx"], group.meta["eps"]
    index = {lab: i for i, lab in enumerate(group.labels)}
    zb = [ctx.pow(eps, 9 * j) for j in range(3)]
    return [index[(ctx.pow(eps, i), 0)] for i in range(6)], [index[(0, b)] for b in zb], zb


def check_p_epsilon_presentation(group):
    """Evaluate the explicit relation list in a built P(eps).

    With eps of minimal polynomial x^6+x^4+x^3+x+1, x_i = (eps^(i-1), 0)
    and z_j running over the GF(8) basis (1, eps^9, eps^18), the 24
    relations that make the z's central involutions are evaluated in the
    group, and the 6 squares and 15 commutators of p_epsilon_tables(group)
    are compared with PRESENTATION_SQUARES and PRESENTATION_COMMUTATORS.
    Returns per-relation verdicts; a mismatch is reported, never
    corrected. Any other minimal polynomial raises BadEpsilon.
    """
    ctx, eps = group.meta["ctx"], group.meta["eps"]
    if ctx.minimal_polynomial(eps) != 0x5B:
        raise BadEpsilon(
            "relation list is specific to the minimal polynomial 0x5B"
        )
    x, z, zb = _x_and_z_ids(group)
    tables = p_epsilon_tables(group)
    labels = group.labels
    relations = []

    def record(name, got, want):
        relations.append(
            {"relation": name, "holds": got == want, "computed": str(got), "expected": str(want)}
        )

    def z_word(name, got, js):
        label = "".join(f"z{j}" for j in js) if js else "1"
        record(f"{name} = {label}", (0, _z_value(zb, got)), (0, _z_value(zb, js)))

    for j in range(3):
        record(f"z{j + 1}^2 = 1", labels[group.mul[z[j]][z[j]]], labels[0])
    for i in range(6):
        for j in range(3):
            record(f"[x{i + 1},z{j + 1}] = 1", labels[group.commutator(x[i], z[j])], labels[0])
    for k in range(3):
        for l in range(k + 1, 3):
            record(f"[z{k + 1},z{l + 1}] = 1", labels[group.commutator(z[k], z[l])], labels[0])
    for i, js in PRESENTATION_SQUARES.items():
        z_word(f"x{i}^2", tables["squares"][i], js)
    for (i, j), js in sorted(PRESENTATION_COMMUTATORS.items()):
        z_word(f"[x{i},x{j}]", tables["commutators"][(i, j)], js)

    return {
        "relations": relations,
        "all_hold": all(r["holds"] for r in relations),
    }


def p_epsilon_tables(group):
    """Presentation coefficients read off a built P(eps).

    Basis elements x_i = (eps^(i-1), 0) and z_j = (0, (eps^9)^(j-1)) turn
    every square and commutator into a word in the z's; the returned maps
    give the z-index tuples. Two choices of eps with the same minimal
    polynomial produce identical tables, which is the mechanical content
    of the uniqueness argument.
    """
    x, _, zb = _x_and_z_ids(group)
    words = {}
    for mask in range(8):
        js = tuple(j + 1 for j in range(3) if mask >> j & 1)
        words[_z_value(zb, js)] = js

    def word(y):
        return words[group.labels[y][1]]

    return {
        "squares": {i + 1: word(group.mul[x[i]][x[i]]) for i in range(6)},
        "commutators": {
            (i + 1, j + 1): word(group.commutator(x[i], x[j]))
            for i in range(6)
            for j in range(i + 1, 6)
        },
    }
