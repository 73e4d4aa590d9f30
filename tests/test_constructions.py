"""Tests for the family builders and the presentation checker."""

import random

import pytest

from suzuki2.errors import (
    BadEpsilon,
    BadFormat,
    BadTheta,
    GroupTooLarge,
    NotAGroup,
    Unsupported,
)
from suzuki2.gf2n import FieldContext
from suzuki2.groups import FiniteGroup
from suzuki2.linalg import GF2, Matrix, pack, unpack
from suzuki2 import constructions
from suzuki2.constructions import (
    PRESENTATION_COMMUTATORS,
    _check_biadditive,
    _cocycle_group,
    _trace_cocycle,
    PRESENTATION_SQUARES,
    build_a2,
    build_b2,
    build_family,
    build_generalized_quaternion,
    build_homocyclic,
    build_p_epsilon,
    check_p_epsilon_presentation,
    p_epsilon_tables,
    theta_order,
)
from suzuki2.gf2n import PEPS_POLY

from oracles import list_solve


def triangular(ctx, a, b, a_twist):
    return Matrix(ctx, [[1, a, b], [0, 1, a_twist], [0, 0, 1]])


def test_theta_order():
    assert theta_order(3, 1) == 3
    assert theta_order(3, 0) == 1
    assert theta_order(4, 2) == 2
    assert theta_order(6, 2) == 3
    assert theta_order(5, 3) == 5


def test_a2_rejects_bad_theta():
    with pytest.raises(BadTheta):
        build_a2(3, 0)
    with pytest.raises(BadTheta):
        build_a2(4, 2)
    with pytest.raises(BadTheta):
        build_a2(2, 1)


def test_a2_structure():
    g = build_a2(3, 1)
    assert g.order == 64
    assert g.order_profile() == {1: 1, 2: 7, 4: 56}
    z = g.center()
    assert len(z) == 8
    assert sorted(g.labels[i] for i in z) == [(0, b) for b in range(8)]
    assert g.is_special_2group()
    assert g.exponent() == 4
    # special() numbers G', the span of the generator commutators, and
    # reads V = G/Z in the generator basis
    sp = g.special()
    assert sorted(sp.coord) == list(z)
    assert (sp.dim_v, sp.dim_z) == (3, 3)
    assert [sp.lift[1 << i] for i in range(3)] == list(g.gens)
    assert g.involution_count() == len(z) - 1


def test_a2_product_matches_matrix_multiplication():
    g = build_a2(3, 1)
    ctx = g.meta["ctx"]
    rng = random.Random(20)
    index = {lab: i for i, lab in enumerate(g.labels)}
    for _ in range(50):
        x = rng.randrange(64)
        y = rng.randrange(64)
        (a, b), (c, d) = g.labels[x], g.labels[y]
        prod = triangular(ctx, a, b, ctx.frobenius(a)) * triangular(
            ctx, c, d, ctx.frobenius(c)
        )
        lab = (prod.rows[0][1], prod.rows[0][2])
        assert prod.rows[1][2] == ctx.frobenius(lab[0])
        assert g.mul[x][y] == index[lab]


def test_b2_structure():
    g = build_b2(2)
    assert g.order == 64
    assert g.order_profile() == {1: 1, 2: 3, 4: 60}
    z = g.center()
    assert len(z) == 4
    ctx = g.meta["ctx"]
    subfield = {x for x in range(ctx.size) if ctx.frobenius(x, 2) == x}
    assert {g.labels[i] for i in z} == {(0, b) for b in subfield}
    assert g.is_special_2group()
    assert g.involution_count() == 3


def test_b2_constraint_holds_everywhere():
    for n in (1, 2):
        g = build_b2(n)
        ctx = g.meta["ctx"]
        for a, b in g.labels:
            assert b ^ ctx.frobenius(b, n) ^ ctx.mul(a, ctx.frobenius(a, n)) == 0


def b2_seed_by_solve(ctx, n, a):
    """The smallest b with b + b^q = a^(1+q), q = 2^n, through a GF(2)
    linear solve: one solution, then the least of its coset by GF(q)."""
    m = 2 * n
    lmat = Matrix(GF2, [unpack((1 << i) ^ ctx.frobenius(1 << i, n), m) for i in range(m)])
    b0 = pack(list_solve(lmat, unpack(ctx.mul(a, ctx.frobenius(a, n)), m)))
    return min(b0 ^ x for x in range(ctx.size) if ctx.frobenius(x, n) == x)


class _Captured(Exception):
    pass


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_b2_seeds_match_the_linear_solve(monkeypatch, n):
    # capture build_b2's seed map before any table is built, then compare
    # it with the solve on every a, not only on the seeds 1 << i
    def capture(f, dim, order, meta, second):
        raise _Captured(meta["ctx"], second)

    monkeypatch.setattr(constructions, "_cocycle_group", capture)
    with pytest.raises(_Captured) as info:
        build_b2(n)
    ctx, second = info.value.args
    assert [second(a) for a in range(ctx.size)] == [
        b2_seed_by_solve(ctx, n, a) for a in range(ctx.size)
    ]


def test_b2_product_matches_matrix_multiplication():
    g = build_b2(2)
    ctx = g.meta["ctx"]
    rng = random.Random(21)
    index = {lab: i for i, lab in enumerate(g.labels)}
    for _ in range(50):
        x = rng.randrange(g.order)
        y = rng.randrange(g.order)
        (a, b), (c, d) = g.labels[x], g.labels[y]
        prod = triangular(ctx, a, b, ctx.frobenius(a, 2)) * triangular(
            ctx, c, d, ctx.frobenius(c, 2)
        )
        lab = (prod.rows[0][1], prod.rows[0][2])
        assert g.mul[x][y] == index[lab]


def test_b2_1_is_quaternion():
    g = build_b2(1)
    assert g.order == 8
    assert g.order_profile() == {1: 1, 2: 1, 4: 6}
    assert len(g.center()) == 2


def test_p_epsilon_structure():
    g = build_p_epsilon()
    assert g.order == 512
    assert g.order_profile() == {1: 1, 2: 7, 4: 504}
    z = g.center()
    assert len(z) == 8
    # involutions are exactly the nontrivial central elements
    invs = [i for i in range(g.order) if g.element_order(i) == 2]
    assert set(invs) == set(z) - {0}
    assert g.is_special_2group()


def test_p_epsilon_square_and_commutator_formulas():
    g = build_p_epsilon()
    ctx = g.meta["ctx"]
    eps = g.meta["eps"]
    index = {lab: i for i, lab in enumerate(g.labels)}

    def tr(u):
        return u ^ ctx.frobenius(u, 3)

    rng = random.Random(22)
    for _ in range(60):
        i = rng.randrange(512)
        j = rng.randrange(512)
        a, _ = g.labels[i]
        b, _ = g.labels[j]
        sq = tr(ctx.mul(ctx.pow(a, 3), eps))
        assert g.mul[i][i] == index[(0, sq)]
        comm = tr(ctx.mul(ctx.mul(ctx.mul(a ^ b, a), b), eps))
        assert g.commutator(i, j) == index[(0, comm)]


def test_p_epsilon_trace_nonzero_off_zero():
    g = build_p_epsilon()
    ctx = g.meta["ctx"]
    eps = g.meta["eps"]
    for a in range(1, 64):
        u = ctx.mul(ctx.pow(a, 3), eps)
        assert u ^ ctx.frobenius(u, 3) != 0


def test_p_epsilon_rejects_non_generator():
    # x^6 + x^3 + 1 is irreducible but its root has order 9, not 63
    with pytest.raises(BadEpsilon):
        build_p_epsilon(0x49)


def test_family_size_relations():
    a2 = build_a2(3, 1)
    assert a2.order == len(a2.center()) ** 2
    for g in (build_b2(2), build_p_epsilon()):
        assert g.order == len(g.center()) ** 3


def test_homocyclic():
    g = build_homocyclic(2, 4)
    assert g.order == 16
    assert g.order_profile() == {1: 1, 2: 3, 4: 12}
    assert len(g.center()) == g.order
    z2 = build_homocyclic(1, 2)
    assert z2.order == 2
    with pytest.raises(GroupTooLarge):
        build_homocyclic(13, 2)
    with pytest.raises(Unsupported):
        build_homocyclic(2, 3)


def test_generalized_quaternion():
    q8 = build_generalized_quaternion(8)
    assert q8.order_profile() == {1: 1, 2: 1, 4: 6}
    q16 = build_generalized_quaternion(16)
    assert q16.involution_count() == 1
    assert q16.order_profile() == {1: 1, 2: 1, 4: 10, 8: 4}
    for order in (2, 4, 12):
        with pytest.raises(Unsupported):
            build_generalized_quaternion(order)
    with pytest.raises(GroupTooLarge):
        build_generalized_quaternion(8192)


def test_build_family_specifiers():
    assert build_family("a2:3:1").order == 64
    assert build_family("b2:1").order == 8
    assert build_family("peps").order == 512
    assert build_family("peps:0x5B").order == 512
    assert build_family("hc:2:4").order == 16
    assert build_family("q:16").order == 16
    for bad in ("a2:3", "zz:1", "a2:x:y", "q", "peps:zz"):
        with pytest.raises(BadFormat):
            build_family(bad)


def test_presentation_all_relations_hold():
    rep = check_p_epsilon_presentation(build_p_epsilon())
    assert rep["all_hold"]
    # 3 z-squares + 18 x/z commutators + 3 z/z commutators + 6 squares + 15 commutators
    assert len(rep["relations"]) == 45
    names = [r["relation"] for r in rep["relations"]]
    assert "x1^2 = z2" in names
    assert "[x1,x6] = 1" in names
    assert "[x2,x6] = z1z2z3" in names


def test_presentation_requires_specific_polynomial():
    # 0x43 is primitive, so the group builds, but the relation list
    # is tied to 0x5B and must be refused
    with pytest.raises(BadEpsilon):
        check_p_epsilon_presentation(build_p_epsilon(0x43))


@pytest.mark.parametrize(
    "table, key, word, name",
    [
        (PRESENTATION_SQUARES, 1, (3,), "x1^2 = z3"),
        (PRESENTATION_COMMUTATORS, (2, 6), (1,), "[x2,x6] = z1"),
    ],
)
def test_presentation_reports_a_changed_relation(monkeypatch, table, key, word, name):
    monkeypatch.setitem(table, key, word)
    pe = build_p_epsilon()
    rep = check_p_epsilon_presentation(pe)
    assert rep["all_hold"] is False
    (bad,) = [r for r in rep["relations"] if not r["holds"]]
    assert bad["relation"] == name
    # computed comes from the group, expected from the changed list
    # z_j = (0, eps^(9(j-1)))
    ctx, eps = pe.meta["ctx"], pe.meta["eps"]
    assert bad["expected"] == str((0, ctx.pow(eps, 9 * (word[0] - 1))))
    assert bad["computed"] != bad["expected"]


def test_presentation_reports_a_non_central_z():
    # swap the labels of z1 = (0, 1) and x1 = (1, 0): the label z1 now
    # sits on an element of order 4 that commutes with neither x2 nor x3
    pe = build_p_epsilon()
    labels = list(pe.labels)
    i, j = labels.index((0, 1)), labels.index((1, 0))
    labels[i], labels[j] = labels[j], labels[i]
    swapped = FiniteGroup(pe.mul, pe.gens, labels, pe.meta)
    rep = check_p_epsilon_presentation(swapped)
    holds = {r["relation"]: r["holds"] for r in rep["relations"]}
    assert holds["z1^2 = 1"] is False
    assert holds["[x2,z1] = 1"] is False
    assert holds["z2^2 = 1"] and holds["z3^2 = 1"] and holds["[z2,z3] = 1"]
    assert rep["all_hold"] is False


def test_cocycle_group_checks_the_closure_order():
    # the zero cocycle closes two seeds to GF(2)^2, order 4, not 16
    with pytest.raises(NotAGroup, match="order 4, not 16"):
        _cocycle_group(lambda a, c: 0, 2, 16, {})


def test_cocycle_group_certifies_before_seeding():
    def second(a):
        raise AssertionError("seeded before the cocycle was certified")

    with pytest.raises(NotAGroup, match="biadditive"):
        _cocycle_group(lambda a, c: a & 1, 2, 8, {}, second=second)


def test_tables_match_presentation_constants():
    tab = p_epsilon_tables(build_p_epsilon())
    assert tab["squares"] == PRESENTATION_SQUARES
    assert tab["commutators"] == PRESENTATION_COMMUTATORS


def test_tables_invariant_under_conjugate_eps():
    from suzuki2.gf2n import FieldContext

    ctx = FieldContext(6, PEPS_POLY)
    base = p_epsilon_tables(build_p_epsilon())
    # conjugates eps^(2^k) share the minimal polynomial and the tables
    for k in (1, 2, 3):
        assert p_epsilon_tables(build_p_epsilon(eps=ctx.pow(ctx.t, 2**k))) == base
    # a generator with a different minimal polynomial gives different tables
    other = ctx.pow(ctx.t, 5)
    assert ctx.minimal_polynomial(other) != 0x5B
    assert p_epsilon_tables(build_p_epsilon(eps=other)) != base


def test_build_p_epsilon_rejects_non_generator_eps():
    from suzuki2.gf2n import FieldContext

    ctx = FieldContext(6, PEPS_POLY)
    ninth = ctx.pow(ctx.t, 9)  # order 7, lies in the subfield
    with pytest.raises(BadEpsilon):
        build_p_epsilon(eps=ninth)


def test_non_additive_frobenius_is_rejected(monkeypatch):
    # x -> x^3 is not additive, so neither twisted cocycle is biadditive
    monkeypatch.setattr(
        FieldContext, "frobenius", lambda self, x, k=1: self.mul(x, self.mul(x, x))
    )
    with pytest.raises(NotAGroup, match="biadditive"):
        build_a2(3, 1)
    with pytest.raises(NotAGroup, match="biadditive"):
        build_b2(2)


@pytest.mark.parametrize("a, b", [(37, 21), (2, 8), (0, 5)])
def test_check_biadditive_rejects_one_perturbed_cocycle_value(a, b):
    ctx = FieldContext(6, PEPS_POLY)
    cocycle = _trace_cocycle(ctx, ctx.t)
    _check_biadditive(lambda x, y: cocycle[x][y], 6)
    cocycle[a][b] ^= 1
    with pytest.raises(NotAGroup, match="biadditive"):
        _check_biadditive(lambda x, y: cocycle[x][y], 6)


def test_build_p_epsilon_rejects_a_perturbed_cocycle(monkeypatch):
    # (37, 21) is no generator edge, so only the biadditivity check sees it
    def perturbed(ctx, eps):
        table = _trace_cocycle(ctx, eps)
        table[37][21] ^= 1
        return table

    monkeypatch.setattr(constructions, "_trace_cocycle", perturbed)
    with pytest.raises(NotAGroup, match="biadditive"):
        build_p_epsilon()
