"""Tests for certified automorphisms, fusion, and the brute-force oracle."""

import random

import pytest

from suzuki2.errors import (
    NotAHomomorphism,
    NotBijective,
    NotFound,
    TooLargeForBruteForce,
    Unsupported,
)
from suzuki2.constructions import (
    build_a2,
    build_b2,
    build_generalized_quaternion,
    build_homocyclic,
    build_family,
    build_p_epsilon,
)
from suzuki2 import automorphisms
from suzuki2.gf2n import FieldContext
from suzuki2.groups import FiniteGroup, Special
from suzuki2.linalg import GF2, Matrix, point_matrix, wedge_pairs
from suzuki2.permgrp import StabChain, compose, invert, orbits
from suzuki2.automorphisms import (
    Automorphism,
    _certificate_witness,
    _exact_sequence_order,
    _label_perm,
    _pairs_witness,
    aut_group_order,
    brute_force_aut,
    central_maps,
    commutator_matrix,
    find_isomorphism,
    fusion_classes,
    is_at_group,
    isomorphism_from_labels,
    known_aut_generators,
    verify_lemma31,
)

from oracles import list_solve


def conjugation(g, j):
    """Inner automorphism x -> j^-1 x j as a raw permutation."""
    ji = g.inv[j]
    return tuple(g.mul[g.mul[ji][x]][j] for x in range(g.n))


def test_identity_automorphism():
    q8 = build_generalized_quaternion(8)
    ident = Automorphism(q8, range(q8.n), "custom")
    assert ident.order() == 1
    assert ident.perm[3] == 3


def test_certificate_rejects_non_homomorphism():
    # no automorphism of the quaternion group is a single transposition
    q8 = build_generalized_quaternion(8)
    perm = list(range(8))
    perm[6], perm[7] = perm[7], perm[6]
    # the witness is named by its label
    with pytest.raises(NotAHomomorphism, match=r"at element \("):
        Automorphism(q8, perm)
    with pytest.raises(NotAHomomorphism, match=r"at element \("):
        isomorphism_from_labels(q8, q8, lambda lab: q8.labels[perm[q8.labels.index(lab)]])


def test_certificates_name_the_witness_by_id_without_labels(monkeypatch):
    # Z/4 as a bare table; swapping 1 and 2 breaks 1 + 1 = 2 at element 1
    z4 = FiniteGroup([[(i + j) % 4 for j in range(4)] for i in range(4)], [1])
    assert z4.labels is None
    bad = (0, 2, 1, 3)
    with pytest.raises(NotAHomomorphism, match="at element 1$"):
        Automorphism(z4, bad)
    monkeypatch.setattr(automorphisms, "_first_extension", lambda *args: bad)
    with pytest.raises(NotAHomomorphism, match="at element 1$"):
        find_isomorphism(z4, z4)


def test_certificate_rejects_bad_shapes():
    q8 = build_generalized_quaternion(8)
    with pytest.raises(NotBijective):
        Automorphism(q8, [0] * 8)
    cyc = tuple(range(1, 8)) + (0,)
    with pytest.raises(NotAHomomorphism):
        Automorphism(q8, cyc)


def test_conjugation_certifies_and_composes():
    q16 = build_generalized_quaternion(16)
    a = Automorphism(q16, conjugation(q16, q16.gens[0]))
    b = Automorphism(q16, conjugation(q16, q16.gens[1]))
    # products and inverses of certified maps pass the certificate again
    c = Automorphism(q16, compose(a.perm, b.perm))
    assert Automorphism(q16, compose(invert(c.perm), c.perm)).order() == 1
    assert a.order() in (1, 2, 4, 8)


def test_known_generators_a2():
    g = build_a2(3, 1)
    auts = known_aut_generators(g)
    assert len(auts) == 9 + 2
    assert [a.source for a in auts] == ["central"] * 9 + ["xi", "frobenius"]
    xi, phi = auts[-2], auts[-1]
    assert xi.order() == 7
    assert phi.order() == 3
    assert all(a.order() == 2 for a in auts[:9])


def test_known_generators_b2():
    g = build_b2(2)
    auts = known_aut_generators(g)
    assert len(auts) == 8 + 2
    xi, phi = auts[-2], auts[-1]
    assert xi.order() == 15
    assert phi.order() == 4
    # xi multiplies both coordinates, the second by lambda^(q+1)
    ctx = g.meta["ctx"]
    lam = ctx.t
    lam5 = ctx.pow(lam, 5)
    for i, (a, b) in enumerate(g.labels):
        assert g.labels[xi.perm[i]] == (ctx.mul(a, lam), ctx.mul(b, lam5))


def test_known_generators_peps():
    g = build_p_epsilon()
    auts = known_aut_generators(g)
    assert len(auts) == 18 + 2
    alpha, beta = auts[-2], auts[-1]
    assert alpha.order() == 21
    assert beta.order() == 9


def test_peps_maps_hold_for_every_generator_eps():
    # _peps_maps proves alpha and beta for every generator eps; a seeded
    # sample of the 72 (poly, eps) groups, since all of them take seconds
    pairs = [
        (poly, eps)
        for poly in (0x5B, 0x43)
        for eps in range(64)
        if FieldContext(6, poly).is_generator(eps)
    ]
    assert len(pairs) == 72
    for poly, eps in random.Random(5).sample(pairs, 6):
        alpha, beta = automorphisms._peps_maps(build_p_epsilon(poly, eps))
        assert (alpha.order(), beta.order()) == (21, 9), (poly, eps)


def test_known_generators_unsupported_family():
    with pytest.raises(Unsupported):
        known_aut_generators(build_homocyclic(2, 4))


def scan_peps_semilinear(group):
    """Oracle for _peps_maps: all certified maps (a, x) -> (mu*a^(2^j), nu*x^(2^j)).

    The cocycle forces nu = mu^3 * eps^(1 - 2^j); candidates where that
    value lands outside the GF(8) subfield cannot restrict to the second
    coordinate and are skipped before certification.
    """
    ctx = group.meta["ctx"]
    eps = group.meta["eps"]
    out = []
    for j in range(6):
        shift = ctx.pow(eps, (1 - (1 << j)) % (ctx.size - 1))
        for mu in range(1, ctx.size):
            nu = ctx.mul(ctx.pow(mu, 3), shift)
            if ctx.frobenius(nu, 3) != nu:
                continue
            perm = _label_perm(
                group,
                lambda lab, mu=mu, nu=nu, j=j: (
                    ctx.mul(mu, ctx.frobenius(lab[0], j)),
                    ctx.mul(nu, ctx.frobenius(lab[1], j)),
                ),
            )
            out.append(Automorphism(group, perm))
    return out


def test_peps_semilinear_scan_is_the_odd_part():
    g = build_p_epsilon()
    scan = scan_peps_semilinear(g)
    assert len(scan) == 63
    perms = {a.perm for a in scan}
    alpha, beta = known_aut_generators(g)[-2:]
    assert alpha.perm in perms
    assert beta.perm in perms
    assert sorted({a.order() for a in scan}) == [1, 3, 7, 9, 21]


def test_fusion_classes():
    g = build_a2(3, 1)
    fp = fusion_classes(g, known_aut_generators(g))
    assert fp.sizes == (1, 7, 56)
    assert fp.classes[0] == (0,)
    # the 7-class is exactly the nontrivial center
    assert set(fp.classes[1]) == set(g.center()) - {0}
    # no automorphisms: everything is a singleton
    trivial = fusion_classes(g, [])
    assert trivial.sizes == (1,) * 64


def test_fusion_classes_b2_and_peps():
    b2 = build_b2(2)
    assert fusion_classes(b2, known_aut_generators(b2)).sizes == (1, 3, 60)
    pe = build_p_epsilon()
    assert fusion_classes(pe, known_aut_generators(pe)).sizes == (1, 7, 504)


def test_aut_group_orders():
    a2 = build_a2(3, 1)
    assert aut_group_order(a2, known_aut_generators(a2)) == 10752
    b2 = build_b2(2)
    assert aut_group_order(b2, known_aut_generators(b2)) == 15360
    assert aut_group_order(a2, []) == 1


def test_aut_group_order_peps():
    g = build_p_epsilon()
    assert aut_group_order(g, known_aut_generators(g)) == 16515072


def _extend_images(mul_src, mul_dst, gen_ids, images, state=None):
    """Grow a partial injective homomorphism by one generator image.

    state is (maps, hit, covered) for gen_ids[:-1]; None starts from the
    identity alone and extends by every generator at once. Consistency
    failures raise NotAHomomorphism, image collisions NotBijective.
    Returns the new state; the input state is not modified, so a search
    tree can share parent states. This is the copy-based step the
    library's in-place search replaced.
    """
    if state is None:
        maps = [-1] * len(mul_src)
        maps[0] = 0
        hit = bytearray(len(mul_dst))
        hit[0] = 1
        covered = [0]
        old = 0
    else:
        maps = list(state[0])
        hit = bytearray(state[1])
        covered = list(state[2])
        old = len(covered)
    pairs = list(zip(gen_ids, images))
    newest = pairs[-1:]
    head = 0
    while head < len(covered):
        x = covered[head]
        head += 1
        fx = maps[x]
        # elements covered before this call only need the new generator
        for g, m in newest if head <= old else pairs:
            y = mul_src[x][g]
            fy = mul_dst[fx][m]
            if maps[y] < 0:
                if hit[fy]:
                    raise NotBijective("two elements share an image")
                maps[y] = fy
                hit[fy] = 1
                covered.append(y)
            elif maps[y] != fy:
                raise NotAHomomorphism("inconsistent generator images")
    return maps, hit, covered


def tree_search_aut(group):
    """Reference: every leaf of the full generator-image tree, in tree order.

    This is the exhaustive search brute_force_aut ran before its coset
    enumeration; it visits candidate images in increasing id order.
    """
    gens = list(group.gens)
    cands = [
        [x for x in range(group.n) if group.element_order(x) == group.element_order(g)]
        for g in gens
    ]
    mul = group.mul
    found = []
    images = []

    def descend(depth, state):
        for c in cands[depth]:
            images.append(c)
            try:
                nxt = _extend_images(mul, mul, gens[: depth + 1], images, state)
            except (NotAHomomorphism, NotBijective):
                nxt = None
            if nxt is not None:
                if depth + 1 == len(gens):
                    if -1 not in nxt[0]:
                        found.append(tuple(nxt[0]))
                else:
                    descend(depth + 1, nxt)
            images.pop()

    descend(0, None)
    return found


@pytest.mark.parametrize(
    "spec", ["a2:3:1", "b2:1", "b2:2", "q:8", "q:16", "q:64", "hc:2:4", "hc:3:2"]
)
def test_coset_search_equals_tree_search(spec):
    # q:64 and the hc groups have same-order candidates outside the
    # orbit of a generator, so some first-hit searches come back empty
    g = build_family(spec)
    tree = tree_search_aut(g)
    brute = brute_force_aut(g)
    assert [a.perm for a in brute] == tree
    assert len(set(tree)) == len(tree)
    # find_isomorphism walks the same tree and stops at its first leaf
    assert find_isomorphism(g, g) == tree[0]
    # the maps certified by closure pass the per-map checks too (b2:2 in
    # test_column_and_pairs_certificates_agree; a2:3:1 is skipped for time)
    if len(brute) <= 512:
        for a in brute:
            assert _pairs_witness(g.mul, g.mul, a.perm) == -1
            assert Automorphism(g, a.perm) == a


def rooted_word(tree, words, inverses, c):
    """Oracle: w_c formed from the root's word along the tree path, with
    nothing kept."""
    path = []
    while tree[c] is not None:
        path.append(tree[c])
        c = tree[c][0]
    w = words[c]
    for _, i in reversed(path):
        w = compose(inverses[i], w)
    return w


@pytest.mark.parametrize("spec", ["a2:3:1", "b2:2", "q:64", "hc:2:4"])
def test_brute_force_reads_the_words_formed_from_the_root(monkeypatch, spec):
    # every word brute_force_aut reads is the one an eager walk formed,
    # and reading those words instead lists the same maps (the maps
    # themselves are checked against the tree search above)
    g = build_family(spec)
    reads = []
    real = automorphisms.transversal_word

    def checked(tree, words, inverses, c):
        want = rooted_word(tree, words, inverses, c)
        got = real(tree, words, inverses, c)
        reads.append(got == want)
        return got

    monkeypatch.setattr(automorphisms, "transversal_word", checked)
    lazy = sorted(a.perm for a in brute_force_aut(g))
    monkeypatch.setattr(automorphisms, "transversal_word", rooted_word)
    rooted = sorted(a.perm for a in brute_force_aut(g))
    assert reads and all(reads)
    assert lazy == rooted


def test_brute_force_certifies_each_search_result(monkeypatch):
    # a search hit with two non-identity images swapped is no
    # automorphism; the certificate on each hit must catch it
    first_extension = automorphisms._first_extension

    def swapped(*args):
        hit = first_extension(*args)
        if hit is None:
            return None
        hit = list(hit)
        hit[1], hit[2] = hit[2], hit[1]
        return tuple(hit)

    monkeypatch.setattr(automorphisms, "_first_extension", swapped)
    with pytest.raises(NotAHomomorphism):
        brute_force_aut(build_family("hc:2:4"))


def test_brute_force_small_groups():
    assert len(brute_force_aut(build_generalized_quaternion(8))) == 24
    hc = build_homocyclic(2, 4)
    auts = brute_force_aut(hc)
    assert len(auts) == 96
    # transitive on the twelve order-4 elements
    assert is_at_group(hc, auts)
    q16 = build_generalized_quaternion(16)
    auts16 = brute_force_aut(q16)
    assert len(auts16) == 32
    assert not is_at_group(q16, auts16)


def test_brute_force_matches_known_generators_for_b2_1():
    g = build_b2(1)
    brute = brute_force_aut(g)
    assert len(brute) == aut_group_order(g, known_aut_generators(g)) == 24


def test_brute_force_bounds():
    with pytest.raises(TooLargeForBruteForce):
        brute_force_aut(build_p_epsilon())
    with pytest.raises(TooLargeForBruteForce):
        brute_force_aut(build_homocyclic(5, 2))


def test_at_and_fif_on_quaternion_eight():
    q8 = build_generalized_quaternion(8)
    auts = brute_force_aut(q8)
    assert is_at_group(q8, auts)


def test_central_maps_need_special_coords():
    # Z4 x Z4 is abelian, so not special
    with pytest.raises(Unsupported):
        central_maps(build_family("hc:2:4"))
    # Q8: V = Q8/Z has dimension 2 and |Z| = 2, so two maps; they
    # generate Hom(V, Z) = Inn(Q8), of order 4
    q8 = build_generalized_quaternion(8)
    maps = central_maps(q8)
    assert len(maps) == 2
    assert StabChain([a.perm for a in maps], q8.n).order() == 4


def test_induced_actions():
    g = build_a2(3, 1)
    auts = known_aut_generators(g)
    sc = g.special()
    v_points, z_points = sc.points([a.perm for a in auts])
    ident = Matrix.identity(GF2, 3)
    # central maps act trivially on both quotient and center
    for vp, zp in zip(v_points[:9], z_points[:9]):
        assert point_matrix(vp, sc.dim_v) == ident
        assert point_matrix(zp, sc.dim_z) == ident
    # xi acts on V as multiplication by the field generator: order 7
    m = point_matrix(v_points[-2], sc.dim_v)
    assert m != ident
    assert m * m * m * m * m * m * m == ident


def test_commutator_matrix_shape_and_rank():
    g = build_a2(3, 1)
    c = commutator_matrix(g)
    assert (c.nrows, c.ncols) == (3, 3)
    assert c.rank() == 3
    b = build_b2(2)
    cb = commutator_matrix(b)
    assert (cb.nrows, cb.ncols) == (6, 2)
    assert cb.rank() == 2


def test_verify_lemma31_all_families():
    for g in (build_a2(3, 1), build_b2(2), build_p_epsilon()):
        rep = verify_lemma31(g)
        assert rep["all_passed"]
        names = [c["name"] for c in rep["checks"]]
        assert names == [
            "central_kernel_order",
            "central_kernel_elementary_abelian",
            "fusion_orbit_formula",
            "commutator_map_equivariant",
            "commutator_map_surjective",
        ]
    rep = verify_lemma31(build_a2(3, 1))
    kernel = next(c for c in rep["checks"] if c["name"] == "central_kernel_order")
    assert kernel["computed"] == 512
    formula = next(c for c in rep["checks"] if c["name"] == "fusion_orbit_formula")
    assert (formula["o_v"], formula["o_m"]) == (2, 2)
    onto = next(c for c in rep["checks"] if c["name"] == "commutator_map_surjective")
    assert onto["kernel_dim"] == 0


def test_b2_4_at_order_4096():
    # the build rests on the biadditivity certificate; the public
    # constructor runs Light's test on the largest certified table
    g = build_b2(4)
    assert FiniteGroup(g.mul, g.gens, g.labels).order == 4096
    auts = known_aut_generators(g)
    # 2n(2^(2n) - 1) on V times |Hom(V, Z)| = 2^(2n^2), n = 4
    assert aut_group_order(g, auts) == 2 * 4 * (2**8 - 1) * 2**32
    assert verify_lemma31(g, auts)["all_passed"]


def test_verify_lemma31_rejects_plain_groups():
    with pytest.raises(Unsupported):
        verify_lemma31(build_homocyclic(2, 4))


def test_find_isomorphism_b2_1_q8():
    b1 = build_b2(1)
    q8 = build_generalized_quaternion(8)
    maps = find_isomorphism(b1, q8)
    assert sorted(maps) == list(range(8))
    # certified: products carry over
    for x in range(8):
        for y in range(8):
            assert maps[b1.mul[x][y]] == q8.mul[maps[x]][maps[y]]


def test_find_isomorphism_rejects_mismatch():
    with pytest.raises(NotFound):
        find_isomorphism(build_b2(1), build_homocyclic(3, 2))


def test_find_isomorphism_walks_the_whole_tree_before_not_found():
    # the abelian hc:3:4 and a2:3:1 share order 64 and the order profile
    # {1: 1, 2: 7, 4: 56}, so the profile check passes and only the
    # exhausted search can say no, in both directions
    a2 = build_family("a2:3:1")
    hc = build_family("hc:3:4")
    assert a2.order_profile() == hc.order_profile()
    for src, dst in ((a2, hc), (hc, a2)):
        with pytest.raises(NotFound, match="candidate images"):
            find_isomorphism(src, dst)
    other = build_family("a2:3:2")
    maps = find_isomorphism(a2, other)
    assert sorted(maps) == list(range(64))
    assert all(
        maps[a2.mul[x][y]] == other.mul[maps[x]][maps[y]] for x in range(64) for y in range(64)
    )


def test_isomorphism_from_labels_peps_power():
    # (a, x) -> (a*eps, x) carries the eps^4 cocycle onto the eps one
    pe = build_p_epsilon()
    ctx = pe.meta["ctx"]
    eps = pe.meta["eps"]
    lam = ctx.pow(eps, 4)
    pl = build_p_epsilon(eps=lam)
    maps = isomorphism_from_labels(
        pl, pe, lambda lab: (ctx.mul(lab[0], eps), lab[1])
    )
    assert sorted(maps) == list(range(512))


def test_isomorphism_from_labels_rejects_wrong_map():
    pe = build_p_epsilon()
    ctx = pe.meta["ctx"]
    # squaring only the first coordinate is a label bijection, not a
    # homomorphism; swapping coordinates does not even hit the label set
    with pytest.raises(NotAHomomorphism):
        isomorphism_from_labels(pe, pe, lambda lab: (ctx.frobenius(lab[0]), lab[1]))
    with pytest.raises(NotBijective):
        isomorphism_from_labels(pe, pe, lambda lab: (lab[1], lab[0]))


def test_exact_sequence_order_matches_full_chain():
    for spec in ("a2:3:1", "b2:2", "peps"):
        g = build_family(spec)
        auts = known_aut_generators(g)
        fast = _exact_sequence_order(g, auts)
        assert fast is not None
        assert fast == aut_group_order(g, auts) == StabChain([a.perm for a in auts], g.n).order()


def test_untagged_groups_take_the_chain_path():
    for spec in ("q:64", "hc:2:4"):
        g = build_family(spec)
        auts = brute_force_aut(g)
        assert _exact_sequence_order(g, auts) is None
        assert aut_group_order(g, auts) == len(auts)


def test_missing_central_map_declines_and_fails_kernel_check():
    g = build_a2(3, 1)
    auts = known_aut_generators(g)
    assert _exact_sequence_order(g, auts) is not None
    assert auts[0].source == "central"
    short = auts[1:]
    assert _exact_sequence_order(g, short) is None
    # the chain still sees every map, so the order is exact, not a guess
    assert aut_group_order(g, short) == StabChain([a.perm for a in short], g.n).order()
    rep = verify_lemma31(g, auts=short)
    kernel = next(c for c in rep["checks"] if c["name"] == "central_kernel_order")
    assert (kernel["computed"], kernel["expected"]) == (256, 512)
    assert kernel["passed"] is False
    assert rep["all_passed"] is False


def test_redundant_generator_declines_the_exact_sequence():
    g = build_a2(3, 1)
    auts = known_aut_generators(g)
    # a fourth generator, the product of the first two: 2^4 * |Z| != |G|,
    # so the generators are no longer a basis of V
    gens = list(g.gens) + [g.mul[g.gens[0]][g.gens[1]]]
    h = FiniteGroup(g.mul, gens, g.labels, g.meta)
    moved = [Automorphism(h, a.perm, a.source) for a in auts]
    assert h.special() is not None and h.special().vcoord is None
    with pytest.raises(Unsupported):
        commutator_matrix(h)
    with pytest.raises(Unsupported):
        verify_lemma31(h, moved)
    with pytest.raises(Unsupported):
        central_maps(h)
    # the full chain still gives the order
    assert _exact_sequence_order(h, moved) is None
    assert aut_group_order(h, moved) == aut_group_order(g, auts) == 10752


def test_exact_sequence_reads_v_off_the_table_alone():
    # Q8 carries no tags, and its generators are a basis of V
    q8 = build_family("q:8")
    brute = brute_force_aut(q8)
    assert _exact_sequence_order(q8, brute) == len(brute) == 24
    assert StabChain([a.perm for a in brute], q8.n).order() == 24
    # renaming every label changes nothing
    h = FiniteGroup(q8.mul, q8.gens, [("x", i) for i in range(q8.n)])
    moved = [Automorphism(h, a.perm) for a in brute]
    assert _exact_sequence_order(h, moved) == 24


def test_maps_of_another_group_are_refused():
    # Z8 has order 8 like Q8, and every automorphism of Q8 is a
    # permutation of its ids, but |Aut(Z8)| = 4
    z8 = build_family("hc:1:8")
    q8_auts = brute_force_aut(build_family("q:8"))
    for consume in (aut_group_order, _exact_sequence_order, fusion_classes):
        with pytest.raises(NotAHomomorphism, match="another group"):
            consume(z8, q8_auts)
    a2 = build_a2(3, 1)
    with pytest.raises(NotAHomomorphism, match="another group"):
        verify_lemma31(a2, known_aut_generators(build_a2(3, 1)))
    assert aut_group_order(z8, brute_force_aut(z8)) == 4


def test_equal_perms_of_different_groups_differ():
    q8, z8 = build_family("q:8"), build_family("hc:1:8")
    ident_q8 = Automorphism(q8, range(8))
    ident_z8 = Automorphism(z8, range(8))
    assert ident_q8.perm == ident_z8.perm
    assert ident_q8 != ident_z8
    assert len({ident_q8, ident_z8}) == 2
    assert ident_q8 == Automorphism(q8, range(8))


def test_column_and_pairs_certificates_agree():
    g = build_b2(2)
    rng = random.Random(20231227)
    for _ in range(200):
        rest = list(range(1, g.n))
        rng.shuffle(rest)
        perm = [0] + rest
        assert _certificate_witness(g.mul, g.mul, perm, g.gens) == _pairs_witness(g.mul, g.mul, perm)
    brute = brute_force_aut(g)
    assert len(brute) == 15360
    for a in brute:
        assert _pairs_witness(g.mul, g.mul, a.perm) == -1 == _certificate_witness(
            g.mul, g.mul, a.perm, g.gens
        )


def test_certificate_catches_one_bad_generator_column():
    # y -> a y on the coset C = xH of H = <all generators but the last x>,
    # with a = x g x^-1 for a generator g of H, so aC = C. Right
    # multiplication by a generator of H keeps every coset, so only the
    # column of x can fail, and it does: a is not central
    g = build_a2(3, 1)
    mul = g.mul
    sub = [0]  # H, closed in BFS order
    for y in sub:
        for h in g.gens[:-1]:
            if mul[y][h] not in sub:
                sub.append(mul[y][h])
    x = g.gens[-1]
    assert x not in sub
    a = mul[mul[x][g.gens[0]]][g.inv[x]]
    coset = {mul[x][h] for h in sub}
    perm = [mul[a][y] if y in coset else y for y in range(g.n)]
    bad = [
        h
        for h in g.gens
        if [perm[row[h]] for row in mul] != [mul[m][perm[h]] for m in perm]
    ]
    assert bad == [x]
    with pytest.raises(NotAHomomorphism):
        Automorphism(g, perm)
    assert _certificate_witness(mul, mul, perm, g.gens) == _pairs_witness(mul, mul, perm) >= 0


def test_certificate_catches_one_bad_generator_row():
    # y -> y a on the right coset C = Hx of H = <all generators but the
    # last x>, with a = x^-1 g x for a generator g of H, so Ca = C. Left
    # multiplication by a generator of H keeps every right coset, so only
    # the row of x can fail, and it does: a is not central
    g = build_a2(3, 1)
    mul = g.mul
    sub = [0]  # H, closed in BFS order
    for y in sub:
        for h in g.gens[:-1]:
            if mul[y][h] not in sub:
                sub.append(mul[y][h])
    x = g.gens[-1]
    assert x not in sub
    a = mul[mul[g.inv[x]][g.gens[0]]][x]
    coset = {mul[h][x] for h in sub}
    perm = [mul[y][a] if y in coset else y for y in range(g.n)]
    assert sorted(perm) == list(range(g.n))
    bad = [h for h in g.gens if [perm[y] for y in mul[h]] != [mul[perm[h]][m] for m in perm]]
    assert bad == [x]
    with pytest.raises(NotAHomomorphism):
        Automorphism(g, perm)
    assert _certificate_witness(mul, mul, perm, g.gens) == _pairs_witness(mul, mul, perm) >= 0


# The matrix route the point actions replaced: lifts by first a-part,
# Z coordinates solved in a label basis of the b-parts, points by
# applying matrices. The label bases are built here, from the labels.


def label_basis(values):
    """Greedy GF(2) basis of a set of label parts, smallest first."""
    basis, space = [], {0}
    for x in sorted(values):
        if x not in space:
            basis.append(x)
            space |= {x ^ s for s in space}
    return basis


def old_v_basis(group):
    """Label basis of the a-parts, V = G/Z."""
    return label_basis({a for a, _ in group.labels})


def old_z_basis(group):
    """Label basis of the b-parts of the elements (0, b), Z."""
    return label_basis({b for a, b in group.labels if a == 0})


def old_lift_ids(group):
    lift = {}
    for idx, (a, _) in enumerate(group.labels):
        if a not in lift:
            lift[a] = idx
    return lift


def old_z_coords(group, value):
    width = group.meta["ctx"].n
    zmat = Matrix(GF2, [[(z >> j) & 1 for j in range(width)] for z in old_z_basis(group)])
    return list(list_solve(zmat, tuple((value >> j) & 1 for j in range(width))))


def old_quotient_matrix(group, aut):
    lift = old_lift_ids(group)
    v_basis = old_v_basis(group)
    dim = len(v_basis)
    rows = []
    for v in v_basis:
        a = group.labels[aut.perm[lift[v]]][0]
        rows.append([(a >> j) & 1 for j in range(dim)])
    return Matrix(GF2, rows)


def old_center_matrix(group, aut):
    index = {lab: i for i, lab in enumerate(group.labels)}
    return Matrix(
        GF2,
        [
            old_z_coords(group, group.labels[aut.perm[index[(0, z)]]][1])
            for z in old_z_basis(group)
        ],
    )


def old_commutator_matrix(group):
    v_basis = old_v_basis(group)
    lift = old_lift_ids(group)
    return Matrix(
        GF2,
        [
            old_z_coords(group, group.labels[group.commutator(lift[v_basis[i]], lift[v_basis[j]])][1])
            for i, j in wedge_pairs(len(v_basis))
        ],
    )


def matrix_points(mat, dim):
    out = []
    for v in range(1 << dim):
        w = mat.apply([(v >> i) & 1 for i in range(dim)])
        out.append(sum(bit << i for i, bit in enumerate(w)))
    return tuple(out)


ORACLE_SPECS = ("a2:3:1", "a2:5:1", "b2:2", "b2:3", "peps")


@pytest.fixture(scope="module", params=ORACLE_SPECS)
def family_with_auts(request):
    g = build_family(request.param)
    return g, known_aut_generators(g)


def test_point_actions_match_the_matrix_route(family_with_auts):
    g, auts = family_with_auts
    dim_v, dim_z = len(old_v_basis(g)), len(old_z_basis(g))
    sc = g.special()
    v_points, z_points = sc.points([a.perm for a in auts])
    assert v_points == [matrix_points(old_quotient_matrix(g, a), dim_v) for a in auts]
    # the Z points are in the table-derived basis: T sends table coordinate
    # 1 << k to the old_z_basis coordinates of the member it numbers, so each
    # new matrix M is the old one conjugated, M T = T M_old
    t = Matrix(GF2, [old_z_coords(g, g.labels[sc.members[1 << k]][1]) for k in range(dim_z)])
    for a, vp, zp in zip(auts, v_points, z_points):
        m = point_matrix(zp, dim_z)
        assert matrix_points(m, dim_z) == zp
        assert m * t == t * old_center_matrix(g, a)
        assert point_matrix(vp, dim_v) == old_quotient_matrix(g, a)
    assert commutator_matrix(g) * t == old_commutator_matrix(g)


def test_lemma31_values_match_the_matrix_route(family_with_auts):
    g, auts = family_with_auts
    dim_v, dim_z = len(old_v_basis(g)), len(old_z_basis(g))
    v_mats = [old_quotient_matrix(g, a) for a in auts]
    z_mats = [old_center_matrix(g, a) for a in auts]
    cmat = old_commutator_matrix(g)
    checks = {c["name"]: c for c in verify_lemma31(g, auts)["checks"]}
    formula = checks["fusion_orbit_formula"]
    assert formula["o_v"] == len(orbits([matrix_points(m, dim_v) for m in v_mats], 1 << dim_v))
    assert formula["o_m"] == len(orbits([matrix_points(m, dim_z) for m in z_mats], 1 << dim_z))
    bad = sum(1 for av, am in zip(v_mats, z_mats) if av.exterior_square() * cmat != cmat * am)
    assert checks["commutator_map_equivariant"]["computed"] == bad == 0
    surjective = checks["commutator_map_surjective"]
    assert surjective["computed"] == cmat.rank()
    assert surjective["kernel_dim"] == len(wedge_pairs(dim_v)) - cmat.rank()


def test_lemma31_fails_when_the_center_points_are_wrong(monkeypatch):
    real = Special.points

    def identity_on_center(sc, perms):
        v_points, z_points = real(sc, perms)
        return v_points, [tuple(range(len(zp))) for zp in z_points]

    monkeypatch.setattr(Special, "points", identity_on_center)
    rep = verify_lemma31(build_a2(3, 1))
    checks = {c["name"]: c for c in rep["checks"]}
    assert checks["fusion_orbit_formula"]["o_m"] == 8
    assert checks["fusion_orbit_formula"]["passed"] is False
    assert checks["commutator_map_equivariant"]["passed"] is False
    assert rep["all_passed"] is False


def _reversed_ids(g):
    """g with its non-identity ids reversed, and the id map pi from g."""
    pi = [0] + list(range(g.n - 1, 0, -1))
    mul = [[0] * g.n for _ in range(g.n)]
    labels = [None] * g.n
    for x in range(g.n):
        labels[pi[x]] = g.labels[x]
        for y in range(g.n):
            mul[pi[x]][pi[y]] = pi[g.mul[x][y]]
    return FiniteGroup(mul, [pi[x] for x in g.gens], labels, g.meta), pi


def test_lemma31_does_not_depend_on_the_id_order():
    # the shipped tables number their center 0 .. |Z| - 1 in coordinate
    # order; reversing the other ids breaks that, and nothing may change
    g = build_a2(3, 1)
    auts = known_aut_generators(g)
    h, pi = _reversed_ids(g)
    moved = []
    for a in auts:
        perm = [0] * g.n
        for x in range(g.n):
            perm[pi[x]] = pi[a.perm[x]]
        moved.append(Automorphism(h, perm, a.source))
    assert verify_lemma31(h, moved) == verify_lemma31(g, auts)


@pytest.mark.parametrize("spec", ["q:16", "a2:3:1"])
def test_maps_into_another_group_read_its_ids(spec):
    # the target numbers its elements in another order than the source,
    # so label lookups and candidate images must come from the target
    g = build_family(spec)
    h, pi = _reversed_ids(g)
    assert isomorphism_from_labels(g, h, lambda lab: lab) == tuple(pi)
    # find_isomorphism returns the isomorphism with the smallest
    # generator images; every isomorphism is pi after an automorphism
    isos = [tuple(pi[y] for y in a.perm) for a in brute_force_aut(g)]
    want = min(isos, key=lambda m: [m[x] for x in g.gens])
    assert find_isomorphism(g, h) == want
