"""Tests for the table-based group engine against small named groups."""

import itertools

import pytest

from suzuki2 import constructions
from suzuki2.errors import GroupTooLarge, NotAGroup
from suzuki2.gf2n import PEPS_POLY, FieldContext
from suzuki2.groups import ORDER_CAP, FiniteGroup, closure


def rule_filled_closure(seeds, mul_rule, identity, cap=ORDER_CAP, meta=None, certified=False):
    """The former closure, kept as the oracle: every cell from the rule.

    certified is accepted and ignored: the table always goes through the
    public FiniteGroup, so every certified table it is compared with is
    compared with one that passed Light's test.
    """
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


# The former subgroup-closure definition of "special", kept as the oracle
# for FiniteGroup.special. Subgroups are frozensets of ids.


def generated(g, seeds):
    """<seeds>: closure under multiplication, as a finite group needs no inverses."""
    mul = g.mul
    seeds = sorted(set(seeds) | {0})
    seen = set(seeds)
    frontier = list(seeds)
    while frontier:
        nxt = []
        for x in frontier:
            for s in seeds:
                y = mul[x][s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return frozenset(seen)


def normal_closure(g, seeds):
    mul, inv = g.mul, g.inv
    pool = set(seeds)
    while True:
        extra = {mul[mul[inv[h]][x]][h] for x in pool for h in g.gens} - pool
        if not extra:
            return generated(g, pool)
        pool |= extra


def derived(g):
    return normal_closure(g, {g.commutator(a, b) for a in g.gens for b in g.gens})


def frattini(g):
    """For a 2-group: generated by the squares and the commutators."""
    squares = {g.mul[x][x] for x in range(g.order)}
    return normal_closure(g, squares | {g.commutator(a, b) for a in g.gens for b in g.gens})


def is_abelian(g):
    mul = g.mul
    return all(mul[a][b] == mul[b][a] for a in g.gens for b in g.gens)


def oracle_is_special(g):
    """Nonabelian 2-group with center = derived = Frattini, center elementary abelian."""
    if g.order & (g.order - 1) or is_abelian(g):
        return False
    z = frozenset(g.center())
    mul = g.mul
    if not all(mul[x][x] == 0 and mul[x][y] == mul[y][x] for x in z for y in z):
        return False
    return z == derived(g) == frattini(g)


def test_trivial_closure():
    g = closure([], lambda a, b: 0, 0)
    assert g.order == 1
    assert g.order_profile() == {1: 1}


def test_cyclic_group_structure():
    g = closure([1], cyclic_rule(6), 0)
    assert g.order == 6
    assert g.exponent() == 6
    assert is_abelian(g)
    assert g.order_profile() == {1: 1, 2: 1, 3: 2, 6: 2}
    assert g.center() == tuple(range(6))
    assert derived(g) == {0}


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
    assert len(z) == 2
    assert derived(q8) == set(z)
    assert frattini(q8) == set(z)
    # classical definition admits Q8
    assert q8.is_special_2group()
    assert not is_abelian(q8)


def test_q16_profile():
    q16 = build_q16()
    assert q16.order == 16
    assert q16.order_profile() == {1: 1, 2: 1, 4: 10, 8: 4}
    assert len(q16.center()) == 2
    assert q16.exponent() == 8
    assert not q16.is_special_2group()


def test_z4_squared_profile():
    g = build_z4_squared()
    assert g.order == 16
    assert g.order_profile() == {1: 1, 2: 3, 4: 12}
    assert len(g.center()) == 16
    assert is_abelian(g)
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
        h = generated(g, [x])
        assert all(g.mul[a][b] in h for a in h for b in h)
        assert g.order % len(h) == 0


def test_derived_subgroup_matches_all_pairs():
    for g in (build_q8(), build_q16()):
        all_comms = {
            g.commutator(x, y) for x in range(g.order) for y in range(g.order)
        }
        assert derived(g) == generated(g, all_comms)


def test_center_of_s3_is_trivial():
    s3 = ORACLE_GROUPS["s3"]()
    assert s3.order == 6
    assert s3.center() == (0,)
    assert len(derived(s3)) == 3
    assert not s3.is_special_2group()


def c4_by_c4_rule(a, b):
    """C4 x| C4 = <x, y | x^4 = y^4 = 1, y^-1 x y = x^-1> on pairs (i, j) = x^i y^j."""
    (i, j), (k, l) = a, b
    return ((i + (k if j % 2 == 0 else -k)) % 4, (j + l) % 4)


def heisenberg4_rule(a, b):
    """Unitriangular 3x3 matrices over Z/4 as (a, b, c) = [[1, a, c], [0, 1, b], [0, 0, 1]]."""
    return ((a[0] + b[0]) % 4, (a[1] + b[1]) % 4, (a[2] + b[2] + a[0] * b[1]) % 4)


def family(spec):
    return lambda: constructions.build_family(spec)


ORACLE_GROUPS = {
    **{
        spec: family(spec)
        for spec in (
            "a2:3:1", "a2:5:1", "b2:1", "b2:2", "b2:3", "peps",
            "q:8", "q:16", "q:32", "hc:2:4", "hc:3:2", "hc:1:2",
        )
    },
    "q8xc2": lambda: closure(
        [((1, 0), 0), ((0, 1), 0), ((0, 0), 1)],
        pair_rule(dicyclic_rule(4), cyclic_rule(2)),
        ((0, 0), 0),
    ),
    "c4:c4": lambda: closure([(1, 0), (0, 1)], c4_by_c4_rule, (0, 0)),
    # generated by x, y^2, y: [x, y^2] = z^2 and [x, y] = z span the
    # center <z> = C4 = G', yet x^2 is not central
    "heisenberg4": lambda: closure([(1, 0, 0), (0, 2, 0), (0, 1, 0)], heisenberg4_rule, (0, 0, 0)),
    "s3": lambda: closure([(1, 0, 2), (1, 2, 0)], s3_compose, (0, 1, 2)),
    "c6": lambda: closure([1], cyclic_rule(6), 0),
    "trivial": lambda: closure([], lambda a, b: 0, 0),
}

# The checks of FiniteGroup.special each group fails, read with the oracle's
# subgroups: "order" |G| > 1, "squares" every square central, "derived"
# G' = Z(G). Each check fails alone on some group. Q16, Q32 and S3 fail
# "derived" too, but there G' is not central, so the doubling assumes
# what the squares check proved; on Q16 and Q32 it numbers exactly |Z(G)|
# members, and only the squares check rejects them.
FAILED_CHECKS = {
    "a2:3:1": [], "a2:5:1": [], "b2:1": [], "b2:2": [], "b2:3": [], "peps": [], "q:8": [],
    "trivial": ["order"],
    "heisenberg4": ["squares"],
    "q:16": ["squares", "derived"],
    "q:32": ["squares", "derived"],
    "s3": ["squares", "derived"],
    "q8xc2": ["derived"],
    "c4:c4": ["derived"],
    "hc:2:4": ["derived"],
    "hc:3:2": ["derived"],
    "hc:1:2": ["derived"],
    "c6": ["derived"],
}


def failed_checks(g):
    central = set(g.center())
    failed = {
        "order": g.order == 1,
        "squares": any(g.mul[x][x] not in central for x in range(g.order)),
        "derived": derived(g) != central,
    }
    return [name for name, bad in failed.items() if bad]


@pytest.mark.parametrize("name", sorted(ORACLE_GROUPS))
def test_special_center_agrees_with_the_closure_oracle(name):
    g = ORACLE_GROUPS[name]()
    assert failed_checks(g) == FAILED_CHECKS[name]
    sp = g.special()
    assert (sp is not None) == oracle_is_special(g) == (FAILED_CHECKS[name] == [])
    assert g.is_special_2group() == (sp is not None)
    if sp is None:
        return
    # a GF(2)-linear numbering of Z(G) by 0 .. |Z| - 1
    mul, coord, n = g.mul, sp.coord, g.order
    assert sorted(coord) == list(g.center())
    assert sorted(coord.values()) == list(range(len(coord)))
    assert all(coord[mul[a][b]] == coord[a] ^ coord[b] for a in coord for b in coord)
    assert [coord[z] for z in sp.members] == list(range(len(coord)))
    assert len(coord) == 1 << sp.dim_z
    # every special group here has its generators as a basis of V
    assert (1 << len(g.gens)) * len(coord) == n
    # vcoord is a homomorphism onto GF(2)^dim V with kernel exactly Z,
    # and lift[v] lies in coset v
    vcoord = sp.vcoord
    assert (1 << sp.dim_v) * len(coord) == n
    assert all(vcoord[mul[x][y]] == vcoord[x] ^ vcoord[y] for x in range(n) for y in range(n))
    assert set(vcoord) == set(range(1 << sp.dim_v))
    assert [x for x in range(n) if vcoord[x] == 0] == list(g.center())
    assert len(sp.lift) == 1 << sp.dim_v
    assert all(vcoord[x] == v for v, x in enumerate(sp.lift))


def test_special_is_built_once_per_group():
    g = constructions.build_a2(3, 1)
    sp = g.special()
    assert sp is not None and g.special() is sp
    # the same table with a redundant fourth generator: still special, but
    # 2^4 * |Z| != |G|, so its generators are not a basis of V. It gets a
    # structure of its own, which a cache keyed by the table would share.
    gens = list(g.gens) + [g.mul[g.gens[0]][g.gens[1]]]
    h = FiniteGroup(g.mul, gens, g.labels, g.meta)
    assert h.mul == g.mul
    hp = h.special()
    assert hp is not sp and h.special() is hp
    assert (hp.vcoord, hp.lift, hp.dim_v) == (None, None, None)
    assert (hp.coord, hp.members, hp.dim_z) == (sp.coord, sp.members, sp.dim_z)
    assert sp.vcoord is not None and sp.dim_v == 3
    # a group that is not special caches None and keeps it
    q16 = ORACLE_GROUPS["q:16"]()
    assert q16.special() is None and q16.special() is None


# commutative loop with two-sided inverses that is not associative:
# (1*1)*2 = 2 but 1*(1*2) = 4, so Light's test must reject it
LOOP = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 4, 5, 2],
    [2, 3, 0, 5, 1, 4],
    [3, 4, 5, 0, 2, 1],
    [4, 5, 1, 2, 0, 3],
    [5, 2, 4, 1, 3, 0],
]


def test_table_validation_catches_bad_tables():
    with pytest.raises(NotAGroup):
        FiniteGroup([[0, 1], [1, 1]], [1])  # 1 has no inverse
    with pytest.raises(NotAGroup):
        FiniteGroup([[1, 0], [0, 1]], [1])  # 0 not an identity
    with pytest.raises(NotAGroup):
        FiniteGroup(LOOP, [1, 2])


@pytest.mark.parametrize("gens", [[-1], [5], [1, 2]])
def test_generator_ids_outside_the_table_are_rejected(gens):
    # -1 would index the last row, and 5 or 2 past the end
    with pytest.raises(NotAGroup, match="generator ids"):
        FiniteGroup([[0, 1], [1, 0]], gens)


def test_the_trusted_entry_skips_only_light_test():
    # LOOP fails only associativity: the public constructor rejects it
    # for that, the trusted entry does not look
    with pytest.raises(NotAGroup, match="associativity"):
        FiniteGroup(LOOP, [1, 2])
    assert FiniteGroup._certified(LOOP, [1, 2]).order == 6


@pytest.mark.parametrize(
    "table, gens, match",
    [
        ([[1, 0], [0, 1]], [1], "not an identity"),
        ([[0, 1], [1, 1]], [1], "no two-sided inverse"),
        ([[a ^ b for b in range(4)] for a in range(4)], [1], "do not generate"),
        ([[a ^ b for b in range(4)] for a in range(4)], [], "do not generate"),
        ([[0, 1], [1, 0]], [-1], "generator ids"),
        ([[0, 1], [1, 0]], [5], "generator ids"),
    ],
)
def test_the_trusted_entry_keeps_the_other_checks(table, gens, match):
    with pytest.raises(NotAGroup, match=match):
        FiniteGroup._certified(table, gens)


def test_a_non_biadditive_cocycle_is_rejected_before_any_table(monkeypatch):
    def no_table(*args, **kwargs):
        pytest.fail("closure ran on an uncertified cocycle")

    monkeypatch.setattr(constructions, "closure", no_table)
    # the integer product agrees with its bilinear expansion on basis
    # rows, but f(3, 3) = 9 while f(1, 3) + f(2, 3) = 3 xor 6 = 5
    with pytest.raises(NotAGroup, match=r"biadditive at \(3, 3\)"):
        constructions._cocycle_group(lambda a, c: a * c, 2, 64, {})


def test_a_table_without_generators_fails_generation_not_associativity():
    # with no generators Light's test has nothing to check, and only the
    # trivial table passes the generation walk
    with pytest.raises(NotAGroup, match="do not generate"):
        FiniteGroup(LOOP, [])
    assert FiniteGroup([[0]], []).order == 1


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
    with pytest.raises(NotAGroup):
        closure([1, 2], lambda a, b: LOOP[a][b], 0)
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


@pytest.mark.parametrize("gens", [(1,), ()])
def test_generators_of_a_proper_subgroup_are_rejected(gens):
    # Z2 x Z2 is a valid table, but (1,) reaches only {0, 1} and () only {0}
    z2_squared = [[a ^ b for b in range(4)] for a in range(4)]
    assert FiniteGroup(z2_squared, (1, 2)).order == 4
    with pytest.raises(NotAGroup, match="do not generate"):
        FiniteGroup(z2_squared, gens)


def test_associativity_exhaustive_equivalence_small():
    # Light's test over generators agrees with the cubic check on Q16
    g = build_q16()
    n = g.order
    for a, b, c in itertools.product(range(n), repeat=3):
        assert g.mul[a][g.mul[b][c]] == g.mul[g.mul[a][b]][c]


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
