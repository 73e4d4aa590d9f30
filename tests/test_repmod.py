import random

import pytest

from suzuki2 import repmod
from suzuki2.catalog import (
    SPORADICS,
    entry_gamma_l1,
    entry_path,
    entry_sl,
    entry_sp4,
    load_entry,
    sl_natural_module,
)
from suzuki2.errors import (
    BadFormat,
    BadShape,
    BadSubfield,
    FieldMismatch,
    NotInvariant,
    SingularMatrix,
    Undecided,
    Unsupported,
)
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix, Subspace, pack
from suzuki2.permgrp import _walk, orbits
from suzuki2.repmod import (
    UNKNOWN,
    GModule,
    SubmoduleLattice,
    decompose_lemma22,
    direct_sum,
    dual,
    extend_scalars,
    exterior_square,
    hom_space,
    is_irreducible,
    is_isomorphic,
    is_trivial_action,
    module_from_text,
    module_to_text,
    point_orbits,
    point_permutations,
    quotient_module,
    restrict_scalars,
    spin,
    submodule_lattice,
    submodule_module,
    tensor,
    twist,
    written_over_subfield,
)

GF4 = FieldContext(2)
T = GF4.t


def sl3_2():
    t = Matrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    c = Matrix(GF2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return GModule.from_matrices([t, c], ["t", "c"])


def sl2_4():
    u1 = Matrix(GF4, [[1, 1], [0, 1]])
    ut = Matrix(GF4, [[1, T], [0, 1]])
    w = Matrix(GF4, [[0, 1], [1, 0]])
    return GModule.from_matrices([u1, ut, w], ["u1", "ut", "w"])


def sl3_4():
    u1 = Matrix(GF4, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    ut = Matrix(GF4, [[1, T, 0], [0, 1, 0], [0, 0, 1]])
    c = Matrix(GF4, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return GModule.from_matrices([u1, ut, c], ["u1", "ut", "c"])


def closure_order(mats):
    seen = {Matrix.identity(mats[0].ctx, mats[0].nrows)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                p = m * g
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return len(seen)


def rand_invertible(rng, ctx, n):
    while True:
        m = Matrix(ctx, [[rng.randrange(ctx.size) for _ in range(n)] for _ in range(n)])
        if m.is_invertible():
            return m


def test_fixture_groups_have_expected_orders():
    assert closure_order(sl3_2().matrices()) == 168
    assert closure_order(sl2_4().matrices()) == 60
    assert closure_order(sl3_4().matrices()) == 60480


def test_gmodule_validation():
    with pytest.raises(SingularMatrix):
        GModule(GF2, 2, {"g": Matrix(GF2, [[1, 1], [1, 1]])})
    with pytest.raises(BadShape):
        GModule(GF2, 3, {"g": Matrix.identity(GF2, 2)})
    with pytest.raises(FieldMismatch):
        GModule(GF2, 2, {"g": Matrix.identity(GF4, 2)})
    with pytest.raises(BadShape):
        GModule.from_matrices([])
    with pytest.raises(BadShape):
        GModule.from_matrices([Matrix.identity(GF2, 2)], ["a", "b"])


def test_gmodule_equality():
    assert sl2_4() == sl2_4()
    assert sl2_4() != sl3_4()
    assert hash(sl2_4()) == hash(sl2_4())
    # same matrices under different symbols are different modules
    a = GModule.from_matrices([Matrix.identity(GF2, 2)], ["x"])
    b = GModule.from_matrices([Matrix.identity(GF2, 2)], ["y"])
    assert a != b


def test_twist_over_gf2_is_identity():
    m = sl3_2()
    assert twist(m, 1) == m


def test_twist_has_field_period():
    m = sl2_4()
    assert twist(m, 1) != m
    assert twist(twist(m, 1), 1) == m
    assert twist(m, 2) == m


def test_dual_is_an_involution():
    m = sl2_4()
    assert dual(dual(m)) == m


def test_restrict_and_extend_dims():
    m = sl2_4()
    v = restrict_scalars(m)
    assert v.ctx == GF2 and v.dim == 4
    e = extend_scalars(v, GF4)
    assert e.ctx == GF4 and e.dim == 4
    with pytest.raises(Unsupported):
        extend_scalars(m, FieldContext(4))


def test_tensor_and_exterior_dims():
    m = sl2_4()
    assert tensor(m, twist(m, 1)).dim == 4
    assert exterior_square(restrict_scalars(m)).dim == 6
    assert exterior_square(sl3_4()).dim == 3


def test_tensor_rejects_mismatches():
    a = GModule.from_matrices([Matrix.identity(GF2, 2)])
    b = GModule.from_matrices([Matrix.identity(GF4, 2)])
    with pytest.raises(FieldMismatch):
        tensor(a, b)
    c = GModule.from_matrices([Matrix.identity(GF2, 2)], ["other"])
    with pytest.raises(Unsupported):
        tensor(a, c)
    with pytest.raises(Unsupported):
        direct_sum(a, c)


def test_functors_commute_with_products():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_invertible(rng, GF4, 3)
        b = rand_invertible(rng, GF4, 3)
        ab = a * b
        assert ab.exterior_square() == a.exterior_square() * b.exterior_square()
        assert ab.blowup() == a.blowup() * b.blowup()
        fr = lambda m: Matrix(GF4, [[GF4.frobenius(x) for x in r] for r in m.rows])
        assert fr(ab) == fr(a) * fr(b)
        du = lambda m: m.inverse().transpose()
        assert du(ab) == du(a) * du(b)
        c = rand_invertible(rng, GF4, 2)
        d = rand_invertible(rng, GF4, 2)
        assert ab.tensor(c * d) == a.tensor(c) * b.tensor(d)


def test_spin_examples():
    m = sl3_2()
    assert spin(m, []).dim == 0
    assert spin(m, [(1, 0, 0)]).dim == 3
    triv = GModule(GF2, 3, {"e": Matrix.identity(GF2, 3)})
    assert spin(triv, [(1, 1, 0)]).dim == 1
    with pytest.raises(BadShape):
        spin(m, [(1, 0)])


def test_spin_monotone():
    lam = exterior_square(restrict_scalars(sl2_4()))
    rng = random.Random(5)
    for _ in range(10):
        v1 = [rng.randrange(2) for _ in range(6)]
        v2 = [rng.randrange(2) for _ in range(6)]
        small = spin(lam, [v1])
        big = spin(lam, [v1, v2])
        assert big.contains_space(small)


def test_point_permutations():
    m = sl2_4()
    perms = point_permutations(m)
    assert len(perms) == 3 and all(len(p) == 16 for p in perms)
    u1 = perms[m.symbols.index("u1")]
    # zero is fixed; e1 = point 1 maps to (1, 1) = point 5 under [[1,1],[0,1]]
    assert u1[0] == 0
    assert u1[1] == 5
    big = GModule(GF2, 17, {"g": Matrix.identity(GF2, 17)})
    with pytest.raises(Unsupported):
        point_permutations(big)


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_unit_point_images_are_the_packed_blowup(f):
    # one restriction of scalars: bit k of a point is the element
    # t^(k mod f) = 1 << (k mod f) in coordinate k // f, so its image is
    # row k of blowup(), packed
    module = sl_natural_module(2, f)
    ctx = module.ctx
    for sym, perm in zip(module.symbols, point_permutations(module)):
        gen = module.action[sym]
        masks = gen.blowup_masks()
        assert masks == [pack(r) for r in gen.blowup().rows]
        assert masks == [pack([ctx.mul(1 << r, a) for a in row], f) for row in gen.rows for r in range(f)]
        assert [perm[1 << k] for k in range(2 * f)] == masks


def test_point_orbits_match_the_validated_walk():
    # SL2(4) on GF(4)^2 fixes 0 and is transitive on the 15 other points
    m = sl2_4()
    every = point_orbits(m)
    assert every == orbits(point_permutations(m), 16)
    assert [len(o) for o in every] == [1, 15]
    # a start reached from an earlier one is skipped
    assert [(o[0], len(o)) for o in point_orbits(m, [3, 5, 0])] == [(3, 15), (0, 1)]


@pytest.mark.parametrize(
    "singular",
    [Matrix(GF2, [[1, 1, 0], [0, 1, 1], [1, 0, 1]]), Matrix(GF4, [[1, T], [T, GF4.mul(T, T)]])],
)
def test_point_permutations_certify_each_generator(singular, monkeypatch):
    # a singular generator slipped past GModule's own check must not
    # become a point "permutation" that the orbit walks trust
    monkeypatch.setattr(Matrix, "is_invertible", lambda self: True)
    ctx, d = singular.ctx, singular.nrows
    module = GModule(ctx, d, {"a": Matrix.identity(ctx, d), "s": singular})
    with pytest.raises(SingularMatrix, match="'s'"):
        point_permutations(module)


def test_is_irreducible_frozen_verdicts():
    assert is_irreducible(sl3_2()) is True
    v = restrict_scalars(sl2_4())
    assert is_irreducible(v) is True
    assert is_irreducible(exterior_square(v)) is False
    m = sl2_4()
    assert is_irreducible(tensor(m, twist(m, 1))) is True
    zero = GModule(GF2, 0, {"g": Matrix(GF2, [])})
    assert is_irreducible(zero) is False


def test_is_irreducible_beyond_the_point_bound():
    # reducible large module: random spins refute it
    triv = GModule(GF2, 17, {"g": Matrix.identity(GF2, 17)})
    assert is_irreducible(triv) is False
    # companion matrix of x^17 + x^3 + 1: every spin is the full space,
    # but that cannot be certified exhaustively
    rows = [[0] * 17 for _ in range(17)]
    for i in range(16):
        rows[i][i + 1] = 1
    rows[16][0] = 1
    rows[16][3] = 1
    comp = GModule(GF2, 17, {"g": Matrix(GF2, rows)})
    with pytest.raises(Unsupported):
        is_irreducible(comp)


def _orbit_span(module, orb):
    """The span before packed spins: orbit points reduced one at a time."""
    ctx = module.ctx
    n, d = ctx.n, module.dim
    space = Subspace(ctx, [], d)
    for p in orb:
        if space.dim == d:
            break
        r = space.reduce(tuple((p >> (n * i)) & ((1 << n) - 1) for i in range(d)))
        if any(r):
            space = Subspace(ctx, list(space.basis) + [r], d)
    return space


def _packed_points(space):
    """GF(2) spanning points of an F-subspace: t^r b for each basis b."""
    ctx = space.ctx
    n = ctx.n
    points = []
    for b in space.basis:
        for r in range(n):
            c = ctx.pow(ctx.t, r)
            points.append(sum(ctx.mul(c, x) << (n * i) for i, x in enumerate(b)))
    return points


def _oracle_span(module):
    """A stand-in for repmod._point_span: GF(2) spanning points of the
    F-span of the walked orbit."""
    npts = 1 << (module.ctx.n * module.dim)

    def span(perms, scalar, p):
        return _packed_points(_orbit_span(module, _walk(perms, p, bytearray(npts))))

    return span


def _subspace_lattice(module):
    """Test-local copy of the lattice before packed sums: each orbit's
    span is a Subspace, and pairwise Subspace sums close the lattice."""
    ctx, d = module.ctx, module.dim
    perms = point_permutations(module)
    spans = [_orbit_span(module, orb) for orb in orbits(perms, 1 << (ctx.n * d))[1:]]
    members = [Subspace(ctx, [], d)]
    index = set(members)
    for s in spans:
        if s not in index:
            index.add(s)
            members.append(s)
    i = 0
    while i < len(members):
        for j in range(i + 1):
            s = members[i].sum(members[j])
            if s not in index:
                index.add(s)
                members.append(s)
        i += 1
    members.sort(key=lambda s: (s.dim, s.basis))
    return tuple(members), d > 0 and all(s.dim == d for s in spans)


# every shipped sporadic and catalog module, and natural + dual of SL2
# over GF(4), GF(8) and GF(16)
SPAN_CASES = (
    [f"sporadic:{name}" for name in SPORADICS]
    + [f"gamma_l1:{n}" for n in range(2, 11)]
    + [f"sl:{m}:{f}" for m in range(2, 6) for f in range(1, 6) if m * f <= 10]
    + [f"sp4:{f}" for f in (1, 2, 3)]
    + [f"nat+dual:{f}" for f in (2, 3, 4)]
)


def _span_module(spec):
    kind, *args = spec.split(":")
    if kind == "sporadic":
        return load_entry(entry_path(args[0])).module()
    if kind == "nat+dual":
        nat = sl_natural_module(2, int(args[0]))
        return direct_sum(nat, dual(nat))
    build = {"gamma_l1": entry_gamma_l1, "sl": entry_sl, "sp4": entry_sp4}[kind]
    return build(*map(int, args)).module()


@pytest.mark.parametrize("spec", SPAN_CASES)
def test_point_spans_match_the_orbit_oracle(spec, monkeypatch):
    module = _span_module(spec)
    modules = [module]
    if module.ctx.n * module.dim * (module.dim - 1) // 2 <= 16:
        modules.append(exterior_square(module))
    packed = [(submodule_lattice(m).members, is_irreducible(m)) for m in modules]
    assert packed == [_subspace_lattice(m) for m in modules]
    for m, want in zip(modules, packed):
        monkeypatch.setattr(repmod, "_point_span", _oracle_span(m))
        assert (submodule_lattice(m).members, is_irreducible(m)) == want


@pytest.mark.parametrize("ctx, size", [(GF2, 5), (GF4, 7)])
def test_generator_less_module(ctx, size):
    # every subspace is invariant: 0, the q + 1 lines and the plane
    module = GModule(ctx, 2, {})
    lattice = submodule_lattice(module)
    assert len(lattice) == size
    assert (lattice.members, is_irreducible(module)) == _subspace_lattice(module)
    assert is_irreducible(module) is False


def test_lattice_of_an_irreducible_module():
    lat = submodule_lattice(sl3_2())
    assert [m.dim for m in lat] == [0, 3]


def test_lattice_for_wedge_of_restricted_sl24():
    lam = exterior_square(restrict_scalars(sl2_4()))
    lat = submodule_lattice(lam)
    assert [m.dim for m in lat.members] == [0, 1, 1, 1, 2, 4, 5, 5, 5, 6]
    (two,) = lat.of_dim(2)
    assert is_trivial_action(submodule_module(lam, two))
    (four,) = lat.of_dim(4)
    assert is_irreducible(submodule_module(lam, four))
    assert sorted(m.dim for m in lat.maximal_proper()) == [2, 5, 5, 5]
    # every 1-dim member sits inside the trivially-acted 2-dim member
    assert all(two.contains_space(w) for w in lat.of_dim(1))


def solved_action(module, w):
    """Oracle: the action on w's basis by Matrix.solve against the basis."""
    base = Matrix(module.ctx, w.basis)
    return {
        s: Matrix(module.ctx, [base.solve(mat.apply(b)) for b in w.basis])
        for s, mat in module.action.items()
    }


def test_submodule_coordinates_at_the_pivots_equal_the_solved_ones():
    unipotent = GModule.from_matrices([
        Matrix(GF4, [[1, T, 0], [0, 1, 1], [0, 0, 1]]),
        Matrix(GF4, [[1, 0, T], [0, 1, 0], [0, 0, 1]]),
    ])
    modules = [exterior_square(restrict_scalars(sl2_4())), tensor(sl2_4(), sl2_4()), unipotent]
    seen = 0
    for module in modules:
        for w in submodule_lattice(module).members:
            sub = submodule_module(module, w)
            assert sub.ctx == module.ctx and sub.dim == w.dim
            if w.dim:
                assert sub.action == solved_action(module, w)
                seen += w.dim < module.dim
    assert seen >= 10
    assert {m.ctx for m in modules} == {GF2, GF4}


def test_lattice_closed_under_sum_and_intersection():
    lam = exterior_square(restrict_scalars(sl2_4()))
    lat = submodule_lattice(lam)
    for a in lat:
        for b in lat:
            assert a.sum(b) in lat
            assert a.intersection(b) in lat


def test_lattice_bound():
    big = GModule(GF2, 17, {"g": Matrix.identity(GF2, 17)})
    with pytest.raises(Unsupported):
        submodule_lattice(big)


def test_submodule_module_validation():
    lam = exterior_square(restrict_scalars(sl2_4()))
    lat = submodule_lattice(lam)
    w = Subspace(GF2, [(1, 0, 0, 0, 0, 0)], 6)
    assert w not in lat
    with pytest.raises(NotInvariant):
        submodule_module(lam, w)
    with pytest.raises(FieldMismatch):
        submodule_module(lam, Subspace(GF4, [], 6))
    with pytest.raises(BadShape):
        submodule_module(lam, Subspace(GF2, [], 5))


def test_lattice_rejects_a_non_invariant_member():
    lam = exterior_square(restrict_scalars(sl2_4()))
    lat = submodule_lattice(lam)
    assert SubmoduleLattice(lam, lat.members).members == lat.members
    w = Subspace(GF2, [(1, 0, 0, 0, 0, 0)], 6)
    with pytest.raises(NotInvariant, match="closed under the action"):
        SubmoduleLattice(lam, lat.members + (w,))


def test_lattice_must_run_from_zero_to_the_full_space():
    lam = exterior_square(restrict_scalars(sl2_4()))
    members = submodule_lattice(lam).members
    for bad in (members[1:], members[:-1], ()):
        with pytest.raises(NotInvariant, match="from 0 to the full space"):
            SubmoduleLattice(lam, bad)


def test_quotient_module_edges():
    l34 = exterior_square(sl3_4())
    assert l34.dim == 3
    assert quotient_module(l34, Subspace(GF4, [], 3)) == l34
    full = Subspace(GF4, [(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3)
    assert quotient_module(l34, full).dim == 0
    with pytest.raises(NotInvariant):
        quotient_module(exterior_square(restrict_scalars(sl2_4())),
                        Subspace(GF2, [(1, 0, 0, 0, 0, 0)], 6))


def test_quotient_by_the_big_summand_is_trivial():
    lam = exterior_square(restrict_scalars(sl2_4()))
    lat = submodule_lattice(lam)
    (four,) = lat.of_dim(4)
    q = quotient_module(lam, four)
    assert q.dim == 2 and is_trivial_action(q)


def test_endomorphisms_of_restricted_sl24():
    v = restrict_scalars(sl2_4())
    homs = hom_space(v, v)
    assert len(homs) == 2
    # the identity is a combination of the echelon basis
    total = [[x ^ y for x, y in zip(r, s)] for r, s in zip(homs[0].rows, homs[1].rows)]
    combos = [homs[0], homs[1], Matrix(GF2, total)]
    assert Matrix.identity(GF2, 4) in combos


def test_wedge_of_sl32_is_the_dual():
    m = sl3_2()
    d = dual(m)
    assert len(hom_space(m, d)) == 0
    assert is_isomorphic(m, d) is False
    assert is_isomorphic(exterior_square(m), d) is True


def test_is_isomorphic_basics():
    m = sl3_2()
    assert is_isomorphic(m, tensor(m, m)) is False
    zero = GModule(GF2, 0, {"c": Matrix(GF2, []), "t": Matrix(GF2, [])})
    assert is_isomorphic(zero, zero) is True
    # a conjugate of the action is isomorphic: the Hom search finds the
    # conjugating matrix, or another invertible intertwiner
    p = Matrix(GF2, [[1, 1, 0], [0, 1, 1], [0, 0, 1]])
    conj = GModule(
        GF2, 3,
        {s: p * mat * p.inverse() for s, mat in m.action.items()},
    )
    assert is_isomorphic(m, conj) is True


def test_is_isomorphic_compares_dims_before_the_hom_space(monkeypatch):
    def no_hom_space(*args):
        raise AssertionError("hom_space called")

    monkeypatch.setattr(repmod, "hom_space", no_hom_space)
    m = sl3_2()
    assert is_isomorphic(m, tensor(m, m)) is False
    # mismatched fields and symbols still raise, whatever the dims
    with pytest.raises(FieldMismatch):
        is_isomorphic(m, sl2_4())
    other = GModule(GF2, 1, {"g": Matrix.identity(GF2, 1)})
    with pytest.raises(Unsupported, match="different generator symbols"):
        is_isomorphic(m, other)


def _companion(d, taps):
    rows = [[0] * d for _ in range(d)]
    for i in range(d - 1):
        rows[i][i + 1] = 1
    for t in taps:
        rows[d - 1][t] = 1
    return Matrix(GF2, rows)


def test_is_isomorphic_past_the_point_bound_skips_random_spins(monkeypatch):
    # past 2^16 points is_irreducible can only refute or give up; the Hom
    # search alone decides, so no random spin runs
    def no_spin(*args, **kwargs):
        raise AssertionError("spin called")

    monkeypatch.setattr(repmod, "spin", no_spin)
    comp = GModule(GF2, 17, {"g": _companion(17, [0, 3])})
    # identity plus the superdiagonal
    p = Matrix(GF2, [[1 if j in (i, i + 1) else 0 for j in range(17)] for i in range(17)])
    conj = GModule(GF2, 17, {"g": p * comp.action["g"] * p.inverse()})
    assert is_isomorphic(comp, conj) is True
    one = GModule(GF2, 1, {"g": Matrix.identity(GF2, 1)})
    a = direct_sum(one, GModule(GF2, 16, {"g": _companion(16, [0, 2, 3, 5])}))
    b = direct_sum(one, GModule(GF2, 16, {"g": _companion(16, [0, 1, 3, 12])}))
    assert len(hom_space(a, b)) == 1
    assert is_isomorphic(a, b) is False


def test_is_isomorphic_never_tests_irreducibility(monkeypatch):
    def no_irreducible(*args):
        raise AssertionError("is_irreducible called")

    monkeypatch.setattr(repmod, "is_irreducible", no_irreducible)
    m = sl3_2()
    assert is_isomorphic(exterior_square(m), dual(m)) is True
    assert is_isomorphic(m, dual(m)) is False
    u = sl2_4()
    assert is_isomorphic(u, u) is True
    assert is_isomorphic(u, twist(u, 1)) is False


def _schur_rule(m1, m2):
    """Test-local copy of the rule once tried before the Hom search when
    both modules were irreducible: any nonzero intertwiner decides."""
    if m1.dim != m2.dim:
        return False
    homs = hom_space(m1, m2)
    return bool(homs) and homs[0].is_invertible()


def _irreducible_modules():
    m, u, v = sl3_2(), sl2_4(), sl3_4()
    mods = [m, dual(m), exterior_square(m), extend_scalars(m, GF4)]
    mods += [extend_scalars(dual(m), GF4), u, twist(u, 1), dual(u)]
    mods += [tensor(u, twist(u, 1)), v, twist(v, 1), dual(v), exterior_square(v)]
    mods += [twist(dual(v), 1)]
    return [x for x in mods if is_irreducible(x)]


def test_is_isomorphic_agrees_with_the_schur_rule_on_irreducibles():
    mods = _irreducible_modules()
    assert len(mods) == 14
    verdicts = []
    for m1 in mods:
        for m2 in mods:
            if m1.ctx == m2.ctx and m1.symbols == m2.symbols:
                verdicts.append(is_isomorphic(m1, m2))
                assert verdicts[-1] is _schur_rule(m1, m2)
    # 3, 2, 4 and 5 modules share a field and generators with each other
    assert len(verdicts) == 9 + 4 + 16 + 25
    # classes {m}, {m*, wedge m}; two over GF(4); {u, u*}, {u^(2)},
    # {u (x) u^(2)}; {v}, {v^(2)}, {v*, wedge v}, {v*^(2)}
    assert verdicts.count(True) == (1 + 4) + 2 + (4 + 1 + 1) + (1 + 1 + 4 + 1)
    # Galois twists over GF(4): the criterion of written_over_subfield
    for mod in mods:
        if mod.ctx == GF4:
            assert written_over_subfield(mod, 1) is _schur_rule(mod, twist(mod, 1))


def test_is_isomorphic_unknown_is_loud(monkeypatch):
    triv6 = GModule(GF2, 6, {"g": Matrix.identity(GF2, 6)})
    irr2 = GModule(GF2, 2, {"g": Matrix(GF2, [[0, 1], [1, 1]])})
    mixed = direct_sum(GModule(GF2, 4, {"g": Matrix.identity(GF2, 4)}), irr2)
    # the random search fails, but dim Hom = 24 is not dim End = 36 or 18
    dims = [len(hom_space(a, b)) for a, b in ((triv6, mixed), (triv6, triv6), (mixed, mixed))]
    assert dims == [24, 36, 18]
    assert is_isomorphic(triv6, mixed) is False
    # with no random trials an isomorphic pair past the exhaustive bound
    # stays undecided: its Hom and End dimensions all agree
    monkeypatch.setattr(repmod, "_ISOMORPHISM_TRIALS", 0)
    verdict = is_isomorphic(triv6, triv6)
    assert verdict is UNKNOWN
    assert repr(verdict) == "UNKNOWN"
    with pytest.raises(Undecided):
        bool(verdict)


def test_written_over_subfield_frozen_verdicts():
    m = sl2_4()
    assert written_over_subfield(m, 1) is False
    assert written_over_subfield(m, 2) is True
    assert written_over_subfield(exterior_square(sl3_4()), 1) is False
    assert written_over_subfield(tensor(m, twist(m, 1)), 1) is True


def test_written_over_subfield_preconditions():
    m = sl2_4()
    with pytest.raises(BadSubfield):
        written_over_subfield(m, 4)
    with pytest.raises(BadSubfield):
        written_over_subfield(m, 0)
    with pytest.raises(Unsupported):
        written_over_subfield(exterior_square(restrict_scalars(m)), 1)


def test_extend_of_restrict_splits_into_twists():
    for u in (sl2_4(), sl3_4()):
        ext = extend_scalars(restrict_scalars(u), GF4)
        assert is_isomorphic(ext, direct_sum(u, twist(u, 1))) is True


def test_extension_preserves_isomorphism_verdicts():
    m = sl3_2()
    d = dual(m)
    assert is_isomorphic(m, d) is False
    assert is_isomorphic(extend_scalars(m, GF4), extend_scalars(d, GF4)) is False
    assert is_isomorphic(extend_scalars(m, GF4), extend_scalars(m, GF4)) is True


def test_doubled_summand_matches_the_tensor():
    m = sl2_4()
    lam = exterior_square(restrict_scalars(m))
    (four,) = submodule_lattice(lam).of_dim(4)
    b = submodule_module(lam, four)
    target = restrict_scalars(tensor(m, twist(m, 1)))
    assert is_isomorphic(direct_sum(b, b), target) is True


def test_decompose_sl24():
    rep = decompose_lemma22(sl2_4())
    assert rep["passed"] is True
    assert rep["ambient_dim"] == 6
    assert rep["summand_dims"] == [2, 4]
    assert [p["candidates"] for p in rep["pieces"]] == [1, 1]


def test_decompose_sl34():
    rep = decompose_lemma22(sl3_4())
    assert rep["passed"] is True
    assert rep["ambient_dim"] == 15
    assert rep["summand_dims"] == [6, 9]


def test_decompose_degenerates_over_gf2():
    rep = decompose_lemma22(sl3_2())
    assert rep["passed"] is True
    assert rep["summand_dims"] == [3]
    assert rep["ambient_dim"] == 3


def test_decompose_keeps_each_summands_module(monkeypatch):
    u = sl2_4()
    rep = decompose_lemma22(u)
    lam = exterior_square(restrict_scalars(u))
    for piece in rep["pieces"]:
        assert piece["module"] == submodule_module(lam, piece["space"])
    # no candidate passes: no piece keeps a space or a module
    monkeypatch.setattr(repmod, "is_isomorphic", lambda a, b: False)
    rep = decompose_lemma22(u)
    assert rep["passed"] is False
    assert [(p["space"], p["module"]) for p in rep["pieces"]] == [(None, None)] * 2


def test_serialization_roundtrip():
    for m in (sl3_2(), sl2_4()):
        assert module_from_text(module_to_text(m)) == m


def test_serialization_rejects_bad_input():
    with pytest.raises(BadFormat):
        module_from_text("")
    with pytest.raises(BadFormat):
        module_from_text("field 1 poly=0x3\ndim 1 1\n1\n")
    good = module_to_text(sl3_2())
    with pytest.raises(BadFormat):
        module_from_text(good + good)  # duplicate symbols
    with pytest.raises(BadFormat):
        module_from_text("gen x\nfield oops\n")
    for dims in ("1 -1", "-1 2", "-1 -1"):
        with pytest.raises(BadFormat, match="bad matrix header near line 1"):
            module_from_text(f"gen g\nfield 1 poly=0x3\ndim {dims}\n1\n")


def test_serialization_error_messages_count_lines_from_the_block():
    # comments and blank lines are skipped before a gen line and before
    # its matrix header; line numbers count from the line after "gen x"
    cases = {
        "# c\n\ngen x\n# note\nfield 1 poly=0x3\ndim 1 1\nzz\n": "bad row at line 4",
        "gen x\n\nfield 1\n": "bad matrix header near line 2",
        "gen x\nfield 1 poly=0x3\ndim 2 1\n1\n": "truncated matrix data",
        "# c\nnope x\n": "expected a gen line, got 'nope x'",
    }
    for text, message in cases.items():
        with pytest.raises(BadFormat) as info:
            module_from_text(text)
        assert str(info.value) == message
