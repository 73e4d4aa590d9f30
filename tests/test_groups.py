"""Tests for the table-based group engine against small named groups."""

import itertools
import json

import pytest

from suzuki2 import constructions
from suzuki2.errors import GroupTooLarge, NotAGroup, NotNormal, Unsupported
from suzuki2.gf2n import PEPS_POLY, FieldContext
from suzuki2.groups import ORDER_CAP, FiniteGroup, Subgroup, closure


def rule_filled_closure(seeds, mul_rule, identity, cap=ORDER_CAP, meta=None):
    """The former closure, kept as the oracle: every cell from the rule."""
    seen = {identity}
    order = [identity]
    gens = []
    for s in seeds:
        if s not in seen:
            seen.add(s)
            order.append(s)
        gens.append(s)
    frontier = list(order)
    while frontier:
        nxt = []
        for x in frontier:
            for s in gens:
                y = mul_rule(x, s)
                if y not in seen:
                    if len(seen) >= cap:
                        raise GroupTooLarge(f"closure exceeded cap {cap}")
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    labels = sorted(seen)
    if labels[0] != identity:
        labels.remove(identity)
        labels.insert(0, identity)
    index = {lab: i for i, lab in enumerate(labels)}
    table = [[index[mul_rule(a, b)] for b in labels] for a in labels]
    gen_ids = []
    for s in gens:
        i = index[s]
        if i not in gen_ids:
            gen_ids.append(i)
    return FiniteGroup(table, gen_ids, labels=tuple(labels), meta=meta)


def cyclic_rule(n):
    return lambda a, b: (a + b) % n


def pair_rule(r1, r2):
    return lambda a, b: (r1(a[0], b[0]), r2(a[1], b[1]))


def dicyclic_rule(m):
    """Order-2m presentation carrier: (i, j) with x^m = y^2, y^-1 x y = x^-1.

    Elements are (i, j), i mod m, j in {0, 1}, multiplying by
    (i, j)(k, l) = (i + (-1)^j k + m/2 * [j and l], j xor l).
    """
    half = m // 2

    def rule(a, b):
        i, j = a
        k, l = b
        s = (i + (k if j == 0 else -k)) % m
        if j and l:
            s = (s + half) % m
        return (s, j ^ l)

    return rule


def build_q8():
    return closure([(1, 0), (0, 1)], dicyclic_rule(4), (0, 0))


def build_q16():
    return closure([(1, 0), (0, 1)], dicyclic_rule(8), (0, 0))


def build_z4_squared():
    return closure([(1, 0), (0, 1)], pair_rule(cyclic_rule(4), cyclic_rule(4)), (0, 0))


def test_trivial_closure():
    g = closure([], lambda a, b: 0, 0)
    assert g.order == 1
    assert g.order_profile() == {1: 1}


def test_cyclic_group_structure():
    g = closure([1], cyclic_rule(6), 0)
    assert g.order == 6
    assert g.exponent() == 6
    assert g.is_abelian()
    assert g.order_profile() == {1: 1, 2: 1, 3: 2, 6: 2}
    assert g.center().order == 6
    assert g.derived_subgroup().order == 1


def test_closure_cap():
    with pytest.raises(GroupTooLarge):
        closure([1], cyclic_rule(100), 0, cap=32)


def test_identity_gets_id_zero_even_when_not_minimal():
    # shift labels so the identity label 5 is not the smallest
    g = closure([6], lambda a, b: ((a - 5 + b - 5) % 3) + 5, 5)
    assert g.order == 3
    assert g.labels[0] == 5


def test_q8_profile_center_derived():
    q8 = build_q8()
    assert q8.order == 8
    assert q8.order_profile() == {1: 1, 2: 1, 4: 6}
    assert q8.involution_count() == 1
    z = q8.center()
    assert z.order == 2
    assert q8.derived_subgroup() == z
    assert q8.frattini() == z
    # classical definition admits Q8
    assert q8.is_special_2group()
    assert not q8.is_abelian()


def test_q16_profile():
    q16 = build_q16()
    assert q16.order == 16
    assert q16.order_profile() == {1: 1, 2: 1, 4: 10, 8: 4}
    assert q16.center().order == 2
    assert q16.exponent() == 8
    assert not q16.is_special_2group()


def test_z4_squared_profile():
    g = build_z4_squared()
    assert g.order == 16
    assert g.order_profile() == {1: 1, 2: 3, 4: 12}
    assert g.center().order == 16
    assert g.is_abelian()
    assert not g.is_special_2group()
    assert g.exponent() == 4


def test_element_orders_match_direct_powers():
    g = build_q16()
    for x in range(g.order):
        y = x
        o = 1
        while y != 0:
            y = g.mul[y][x]
            o += 1
        assert g.element_order(x) == o


def test_lagrange_on_generated_subgroups():
    g = build_q16()
    for x in range(g.order):
        h = g.subgroup_generated([x])
        assert g.order % h.order == 0


def test_derived_subgroup_matches_all_pairs():
    for g in (build_q8(), build_q16()):
        all_comms = {
            g.commutator(x, y) for x in range(g.order) for y in range(g.order)
        }
        assert g.derived_subgroup() == g.subgroup_generated(all_comms)


def test_derived_quotient_is_abelian():
    g = build_q16()
    d = g.derived_subgroup()
    assert d.is_normal
    q = g.quotient(d)
    assert q.is_abelian()
    assert q.order * d.order == g.order


def test_quotient_by_whole_and_trivial():
    g = build_q8()
    whole = g.subgroup_generated(range(g.order))
    assert g.quotient(whole).order == 1
    triv = g.subgroup_generated([])
    q = g.quotient(triv)
    assert q.order == g.order
    assert q.order_profile() == g.order_profile()


def test_quotient_rejects_non_normal():
    # S3 via a faithful pair rule on permutation tuples
    def compose(p, q):
        return tuple(q[i] for i in p)

    s3 = closure([(1, 0, 2), (1, 2, 0)], compose, (0, 1, 2))
    assert s3.order == 6
    flip = next(
        i for i in range(6) if s3.element_order(i) == 2
    )
    h = s3.subgroup_generated([flip])
    assert not h.is_normal
    with pytest.raises(NotNormal):
        s3.quotient(h)
    rot = next(i for i in range(6) if s3.element_order(i) == 3)
    q = s3.quotient(s3.subgroup_generated([rot]))
    assert q.order == 2


def test_center_of_s3_is_trivial():
    def compose(p, q):
        return tuple(q[i] for i in p)

    s3 = closure([(1, 0, 2), (1, 2, 0)], compose, (0, 1, 2))
    assert s3.center().order == 1
    assert s3.derived_subgroup().order == 3
    assert not s3.is_special_2group()


def test_frattini_rejects_non_2group():
    g = closure([1], cyclic_rule(6), 0)
    with pytest.raises(Unsupported):
        g.frattini()


def test_squares_on_cosets_requires_special_exponent4():
    with pytest.raises(Unsupported):
        build_z4_squared().squares_constant_on_central_cosets()
    # Q8 is special with exponent 4 and the square map is coset-constant
    assert build_q8().squares_constant_on_central_cosets()


def test_subgroup_validation():
    g = build_q8()
    with pytest.raises(NotAGroup):
        Subgroup(g, [1, 2])  # no identity
    x = next(i for i in range(8) if g.element_order(i) == 4)
    with pytest.raises(NotAGroup):
        Subgroup(g, [0, x])  # not closed


def test_table_validation_catches_bad_tables():
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 1]], [1])  # 1 has no inverse
    with pytest.raises(NotAGroup):
        FiniteGroup([[1, 0], [0, 1]], [1])  # 0 not an identity
    # commutative loop with two-sided inverses that is not associative:
    # (1*1)*2 = 2 but 1*(1*2) = 4, so Light's test must reject it
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 4, 5, 2],
        [2, 3, 0, 5, 1, 4],
        [3, 4, 5, 0, 2, 1],
        [4, 5, 1, 2, 0, 3],
        [5, 2, 4, 1, 3, 0],
    ]
    with pytest.raises(NotAGroup):
        FiniteGroup(loop, [1, 2])


def s3_compose(p, q):
    return tuple(q[i] for i in p)


LOCAL_CLOSURES = {
    "cyclic-6": ([1], cyclic_rule(6), 0),
    "q8": ([(1, 0), (0, 1)], dicyclic_rule(4), (0, 0)),
    "dicyclic-12": ([(1, 0), (0, 1)], dicyclic_rule(6), (0, 0)),
    "z4xz4": ([(1, 0), (0, 1)], pair_rule(cyclic_rule(4), cyclic_rule(4)), (0, 0)),
    "s3": ([(1, 0, 2), (1, 2, 0)], s3_compose, (0, 1, 2)),
    "shifted-identity": ([6], lambda a, b: ((a - 5 + b - 5) % 3) + 5, 5),
    "repeated-seeds": ([1, 0, 1, 2], cyclic_rule(5), 0),
    "trivial": ([], lambda a, b: 0, 0),
}


def same_group(g, h):
    return (g.mul, g.labels, g.gens, g.inv) == (h.mul, h.labels, h.gens, h.inv)


@pytest.mark.parametrize("name", sorted(LOCAL_CLOSURES))
def test_composed_closure_equals_rule_filled_on_local_rules(name):
    seeds, rule, identity = LOCAL_CLOSURES[name]
    assert same_group(closure(seeds, rule, identity), rule_filled_closure(seeds, rule, identity))


FAMILY_SPECS = [
    "a2:3:1", "a2:5:1", "a2:5:2", "b2:1", "b2:2", "b2:3", "peps", "hc:2:4", "hc:3:4",
] + [f"q:{1 << k}" for k in range(3, 11)]


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_composed_closure_equals_rule_filled_on_families(spec, monkeypatch):
    composed = constructions.build_family(spec)
    monkeypatch.setattr(constructions, "closure", rule_filled_closure)
    assert same_group(composed, constructions.build_family(spec))


@pytest.mark.parametrize("power", [2, 4])
def test_composed_closure_equals_rule_filled_on_other_eps(power, monkeypatch):
    ctx = FieldContext(6, PEPS_POLY)
    eps = ctx.pow(ctx.t, power)
    composed = constructions.build_p_epsilon(PEPS_POLY, eps)
    monkeypatch.setattr(constructions, "closure", rule_filled_closure)
    assert same_group(composed, constructions.build_p_epsilon(PEPS_POLY, eps))


def test_closure_rejects_a_rule_off_its_table():
    # the non-associative loop of test_table_validation_catches_bad_tables
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 4, 5, 2],
        [2, 3, 0, 5, 1, 4],
        [3, 4, 5, 0, 2, 1],
        [4, 5, 1, 2, 0, 3],
        [5, 2, 4, 1, 3, 0],
    ]
    with pytest.raises(NotAGroup):
        closure([1, 2], lambda a, b: loop[a][b], 0)
    # Z/4 with one wrong product on an edge the search does not follow
    # (3 was reached from 2): only the edge cross-check can see it
    def off_by_one(a, b):
        return 2 if (a, b) == (3, 1) else (a + b) % 4

    with pytest.raises(NotAGroup, match="disagrees"):
        closure([1], off_by_one, 0)


def test_swapped_entries_at_order_4096_are_rejected():
    g = constructions.build_family("hc:2:64")
    assert g.order == 4096
    rows = [list(row) for row in g.mul]
    rows[1234][2345], rows[1234][3000] = rows[1234][3000], rows[1234][2345]
    with pytest.raises(NotAGroup, match="associativity"):
        FiniteGroup(rows, g.gens)


def test_light_test_covers_every_generator():
    # a loop in which 1 passes Light's test and 2 does not; {1, 2}
    # generates it, so only the pass through the last generator fails
    loop = [
        [0, 1, 2, 3, 4, 5],
        [1, 0, 3, 2, 5, 4],
        [2, 3, 4, 5, 0, 1],
        [3, 2, 5, 4, 1, 0],
        [4, 5, 0, 1, 3, 2],
        [5, 4, 1, 0, 2, 3],
    ]
    with pytest.raises(NotAGroup, match="through generator 2"):
        FiniteGroup(loop, [1, 2])


def test_associativity_exhaustive_equivalence_small():
    # Light's test over generators agrees with the cubic check on Q16
    g = build_q16()
    n = g.order
    for a, b, c in itertools.product(range(n), repeat=3):
        assert g.mul[a][g.mul[b][c]] == g.mul[g.mul[a][b]][c]


def test_describe_json_is_deterministic():
    g = build_q8()
    d = g.describe()
    assert d["order"] == 8
    assert d["order_profile"] == {"1": 1, "2": 1, "4": 6}
    assert d["center_order"] == 2
    assert json.dumps(d, sort_keys=True) == json.dumps(build_q8().describe(), sort_keys=True)


def test_conjugate_and_commutator_identities():
    g = build_q16()
    mul, inv = g.mul, g.inv
    for x in range(g.order):
        for y in range(g.order):
            # x * [x,y] == y^-1 x y
            assert mul[x][g.commutator(x, y)] == mul[mul[inv[y]][x]][y]
            assert g.commutator(x, y) == 0 or mul[x][y] != mul[y][x]


def test_closure_rejects_a_product_outside_the_closed_set():
    # the search never multiplies 1 * 2, so 7 first shows up in the
    # generator row of 1, where it has no index
    def escapes(a, b):
        return 7 if (a, b) == (1, 2) else (a + b) % 4

    with pytest.raises(NotAGroup, match="1 \\* 2 leaves the closed set"):
        closure([1], escapes, 0)
