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

Each builder tags the group's meta dict with the family name, the field
context, and GF(2)-bases of V = N/Z (the a-part) and of Z (the b-part),
which the automorphism machinery consumes.
"""

from math import gcd

from .errors import (
    BadEpsilon,
    BadTheta,
    GroupTooLarge,
    NotAGroup,
    Unsupported,
)
from .gf2n import PEPS_POLY, FieldContext
from .groups import ORDER_CAP, FiniteGroup, closure
from .linalg import GF2, Matrix


def theta_order(n, k):
    """Order of x -> x^(2^k) as a field automorphism of GF(2^n)."""
    return n // gcd(n, k % n) if k % n else 1


def subfield_basis(ctx, elements):
    """Greedy GF(2)-basis of a set of field elements, smallest first."""
    basis = []
    space = {0}
    for x in sorted(elements):
        if x and x not in space:
            basis.append(x)
            space |= {x ^ s for s in space}
    return basis


def build_a2(n, k):
    """Exponent-4 group of order 2^(2n) twisted by theta = x -> x^(2^k)."""
    order_theta = theta_order(n, k)
    if order_theta == 1 or order_theta % 2 == 0:
        raise BadTheta(
            f"theta order {order_theta} must be odd and larger than 1"
        )
    ctx = FieldContext(n)
    mul = ctx.mul
    frob = [ctx.frobenius(x, k) for x in range(ctx.size)]

    def rule(p, q):
        a, b = p
        c, d = q
        return (a ^ c, b ^ d ^ mul(a, frob[c]))

    seeds = [(1 << i, 0) for i in range(n)]
    g = closure(
        seeds,
        rule,
        (0, 0),
        meta={
            "family": "a2",
            "n": n,
            "k": k,
            "ctx": ctx,
            "v_basis": [1 << i for i in range(n)],
            "z_basis": [1 << i for i in range(n)],
        },
    )
    if g.order != 1 << (2 * n):
        raise NotAGroup(f"closure produced order {g.order}, not {1 << (2 * n)}")
    return g


def _b2_solutions(ctx, n, a):
    """All b with b + b^q = a^(1+q) in GF(q^2), q = 2^n, sorted."""
    m = 2 * n
    lmat = Matrix(
        GF2,
        [
            [( (1 << i) ^ ctx.frobenius(1 << i, n) ) >> j & 1 for j in range(m)]
            for i in range(m)
        ],
    )
    rhs = ctx.mul(a, ctx.frobenius(a, n))
    v = lmat.solve(tuple((rhs >> j) & 1 for j in range(m)))
    b0 = 0
    for i, bit in enumerate(v):
        if bit:
            b0 ^= 1 << i
    return sorted(b0 ^ s for s in ctx.subfield_elements(n))


def build_b2(n):
    """Unitary-constraint group of order 2^(3n) over GF(2^(2n))."""
    if n < 1:
        raise Unsupported("n must be at least 1")
    if 1 << (3 * n) > ORDER_CAP:
        raise GroupTooLarge(f"order 2^{3 * n} exceeds cap {ORDER_CAP}")
    ctx = FieldContext(2 * n)
    mul = ctx.mul
    frob = [ctx.frobenius(x, n) for x in range(ctx.size)]

    def rule(p, q):
        a, b = p
        c, d = q
        return (a ^ c, b ^ d ^ mul(a, frob[c]))

    seeds = [(1 << i, _b2_solutions(ctx, n, 1 << i)[0]) for i in range(2 * n)]
    subfield = ctx.subfield_elements(n)
    g = closure(
        seeds,
        rule,
        (0, 0),
        meta={
            "family": "b2",
            "n": n,
            "ctx": ctx,
            "v_basis": [1 << i for i in range(2 * n)],
            "z_basis": subfield_basis(ctx, subfield),
        },
    )
    if g.order != 1 << (3 * n):
        raise NotAGroup(f"closure produced order {g.order}, not {1 << (3 * n)}")
    for a, b in g.labels:
        if b ^ frob[b] ^ mul(a, frob[a]):
            raise NotAGroup(f"element ({a}, {b}) violates the unitary constraint")
    return g


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
    mul = ctx.mul
    cocycle = [
        [
            (lambda u: u ^ ctx.frobenius(u, 3))(mul(mul(a, mul(b, b)), eps))
            for b in range(64)
        ]
        for a in range(64)
    ]

    def rule(p, q):
        a, x = p
        b, w = q
        return (a ^ b, x ^ w ^ cocycle[a][b])

    seeds = [(1 << i, 0) for i in range(6)]
    g = closure(
        seeds,
        rule,
        (0, 0),
        meta={
            "family": "peps",
            "poly": poly,
            "ctx": ctx,
            "eps": eps,
            "v_basis": [1 << i for i in range(6)],
            "z_basis": [1, ctx.pow(eps, 9), ctx.pow(eps, 18)],
        },
    )
    if g.order != 512:
        raise NotAGroup(f"closure produced order {g.order}, not 512")
    return g


def build_homocyclic(m, exponent):
    """Direct power of m cyclic groups of order 2^k."""
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
    """Two-generator group with x^(order/2) = y^2 and x^y = x^-1."""
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


BUILDERS = {
    "a2": build_a2,
    "b2": build_b2,
    "peps": build_p_epsilon,
    "hc": build_homocyclic,
    "q": build_generalized_quaternion,
}


def build_family(spec):
    """Build from a family specifier like a2:3:1, b2:2, peps, hc:2:4, q:16."""
    from .errors import BadFormat

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


def check_p_epsilon_presentation(poly=PEPS_POLY, group=None):
    """Evaluate the explicit relation list for the order-512 group.

    With eps of minimal polynomial x^6+x^4+x^3+x+1, x_i = (eps^(i-1), 0)
    and z_j running over the GF(8) basis (1, eps^9, eps^18), every listed
    relation is evaluated in the constructed group. Returns per-relation
    verdicts; a mismatch is reported, never corrected. group, when given,
    is an already built build_p_epsilon(poly) and is used as is.
    """
    g = build_p_epsilon(poly) if group is None else group
    ctx = g.meta["ctx"]
    eps = g.meta["eps"]
    if ctx.minimal_polynomial(eps) != 0x5B:
        raise BadEpsilon(
            "relation list is specific to the minimal polynomial 0x5B"
        )
    index = {lab: i for i, lab in enumerate(g.labels)}
    x = {i: index[(ctx.pow(eps, i - 1), 0)] for i in range(1, 7)}
    zb = g.meta["z_basis"]
    z = {j: index[(0, zb[j - 1])] for j in range(1, 4)}

    def z_word(js):
        acc = 0
        for j in js:
            acc ^= zb[j - 1]
        return index[(0, acc)]

    def fmt_zs(js):
        return "".join(f"z{j}" for j in js) if js else "1"

    mul = g.mul
    relations = []

    def record(name, got, want):
        relations.append(
            {
                "relation": name,
                "holds": got == want,
                "computed": str(g.labels[got]),
                "expected": str(g.labels[want]),
            }
        )

    for j in range(1, 4):
        record(f"z{j}^2 = 1", mul[z[j]][z[j]], 0)
    for i in range(1, 7):
        for j in range(1, 4):
            record(f"[x{i},z{j}] = 1", g.commutator(x[i], z[j]), 0)
    for k in range(1, 4):
        for l in range(k + 1, 4):
            record(f"[z{k},z{l}] = 1", g.commutator(z[k], z[l]), 0)
    for i in range(1, 7):
        js = PRESENTATION_SQUARES[i]
        record(f"x{i}^2 = {fmt_zs(js)}", mul[x[i]][x[i]], z_word(js))
    for (i, j), js in sorted(PRESENTATION_COMMUTATORS.items()):
        record(f"[x{i},x{j}] = {fmt_zs(js)}", g.commutator(x[i], x[j]), z_word(js))

    return {
        "relations": relations,
        "all_hold": all(r["holds"] for r in relations),
    }


def p_epsilon_tables(poly=PEPS_POLY, eps=None, group=None):
    """Presentation coefficients read off the constructed group.

    Basis elements x_i = (eps^(i-1), 0) and z_j = (0, (eps^9)^(j-1)) turn
    every square and commutator into a word in the z's; the returned maps
    give the z-index tuples. Two choices of eps with the same minimal
    polynomial produce identical tables, which is the mechanical content
    of the uniqueness argument. group, when given, is an already built
    build_p_epsilon(poly, eps) and is used as is.
    """
    g = build_p_epsilon(poly, eps) if group is None else group
    ctx = g.meta["ctx"]
    eps = g.meta["eps"]
    zb = g.meta["z_basis"]
    index = {lab: i for i, lab in enumerate(g.labels)}
    x = {i: index[(ctx.pow(eps, i - 1), 0)] for i in range(1, 7)}
    words = {}
    for mask in range(8):
        acc = 0
        for j in range(3):
            if (mask >> j) & 1:
                acc ^= zb[j]
        words[acc] = tuple(j + 1 for j in range(3) if (mask >> j) & 1)
    squares = {}
    for i in range(1, 7):
        sq = g.labels[g.mul[x[i]][x[i]]]
        squares[i] = words[sq[1]]
    commutators = {}
    for i in range(1, 7):
        for j in range(i + 1, 7):
            com = g.labels[g.commutator(x[i], x[j])]
            commutators[(i, j)] = words[com[1]]
    return {"squares": squares, "commutators": commutators}
