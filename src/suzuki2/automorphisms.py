"""Automorphisms as certified permutations of element ids.

Every map in this module is an Automorphism, certified one of two ways.
A map built from a formula or returned by a search passes the row
certificate of the Automorphism constructor: perm(g*x) = perm(g)*perm(x)
for every generator g of the group and every element x, which by
induction on word length is the full homomorphism property, so nothing
downstream ever trusts a formula. The maps brute_force_aut lists are
products of maps that passed the constructor, and closure certifies
them instead: bijective homomorphisms that fix 0 are closed under
composition and inversion, so Automorphism._product wraps them with no
check. The known generator families are:

  - central maps x -> x * z_j on the cosets whose V coordinate has bit i
    set, one per pair (i, j), which generate Hom(V, Z);
  - a scaling map xi multiplying the a-part by the field generator;
  - the entrywise Frobenius phi (a2 and b2 families);
  - for the order-512 family, two odd semilinear candidates
    alpha: (a, x) -> (eps^3 a, eps^9 x) and beta: (a, x) -> (eps a^4, x^4),
    proved to be automorphisms for every generator eps (see _peps_maps).

The order of the group the maps generate comes from the exact sequence
1 -> Hom(V, Z) -> Aut(G) -> GL(V) when the group is special and the
maps provably contain the whole kernel, and from a Schreier-Sims chain
on all elements otherwise. A brute-force search doubles as an
independent oracle for small groups, and the fusion/orbit machinery
feeds the verification scenarios.

The central maps, the exact-sequence count and verify_lemma31 read the
V = G/Z and Z coordinates of FiniteGroup.special through _v_coords. The
actions a map induces on V and on Z are point permutations, read in one
pass per map by Special.points; orbit counts and the image order in GL(V)
use them directly. Matrices, built from the images of the unit points,
appear only where a linear statement is checked (the commutator
equivariance and ranks).
"""

from operator import itemgetter

from .errors import (
    NotAHomomorphism,
    NotBijective,
    NotFound,
    TooLargeForBruteForce,
    Unsupported,
)
from .linalg import GF2, Matrix, echelon, pack, point_matrix, unpack, wedge_pairs
from .permgrp import (
    StabChain,
    compose,
    extend_transversal,
    invert,
    orbits,
    perm_order,
    transversal_word,
    validate_permutation,
)


def _pairs_witness(mul_src, mul_dst, maps):
    """First x with maps[x*y] != maps[x]*maps[y] for some y, else -1.

    Row x is compared as _certificate_witness compares a generator's row:
    maps read over mul_src[x] against mul_dst[maps[x]] read at the maps."""
    get = itemgetter(*maps)
    for x in range(len(maps)):
        if itemgetter(*mul_src[x])(maps) != get(mul_dst[maps[x]]):
            return x
    return -1


def _certificate_witness(mul_src, mul_dst, maps, gens):
    """First x with maps[x*y] != maps[x]*maps[y] for some y, else -1.

    Only the rows of the source's generators are compared: for each
    generator g, maps[g*x] == maps[g]*maps[x] for every x. Both sides
    read rows that exist already, maps[g*x] over the row mul_src[g] and
    maps[g]*maps[x] as the row mul_dst[maps[g]] read at the maps. That
    is enough, by induction on the length of a positive word w: if
    maps[w*x] == maps[w]*maps[x] for every x, then for a generator g
    maps[g*w*x] = maps[g]*maps[w*x] = maps[g]*maps[w]*maps[x]
    = maps[g*w]*maps[x], the last step being g's row at x = w. In a
    finite group the positive words are all the elements, and
    FiniteGroup._check_table refuses generators that do not generate the
    group. A mismatch in a row is a failing pair, so the full scan run
    on a mismatch always names a witness, the same one the full |G|^2
    scan would name.
    """
    get = itemgetter(*maps)
    for g in gens:
        if itemgetter(*mul_src[g])(maps) != get(mul_dst[maps[g]]):
            return _pairs_witness(mul_src, mul_dst, maps)
    return -1


def _certify(src, dst, maps):
    """Raise NotAHomomorphism unless maps respects the product, naming the
    witness from _certificate_witness by its label, or by its id when src
    has no labels."""
    g = _certificate_witness(src.mul, dst.mul, maps, src.gens)
    if g >= 0:
        name = g if src.labels is None else src.labels[g]
        raise NotAHomomorphism(f"product not respected at element {name!r}")


class Automorphism:
    """A permutation of element ids certified to respect the product."""

    __slots__ = ("group", "perm", "source")

    def __init__(self, group, perm, source="custom"):
        perm = tuple(perm)
        validate_permutation(perm, group.n)
        if perm[0] != 0:
            raise NotAHomomorphism("identity is not fixed")
        _certify(group, group, perm)
        self.group = group
        self.perm = perm
        self.source = source

    def __eq__(self, other):
        same_group = isinstance(other, Automorphism) and self.group is other.group
        return same_group and self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"Automorphism(order {self.order()}, source {self.source})"

    def order(self):
        return perm_order(self.perm)

    @classmethod
    def _product(cls, group, perm, source="custom"):
        """Wrap perm, a product of certified automorphisms of group, unchecked.

        The only way to skip the certificate. Composition keeps a
        bijection, a homomorphism and the fixed identity, and so does
        inversion (in a finite group an inverse is a power), so a product
        or inverse of automorphisms of group is one. Callers pass
        nothing else.
        """
        self = object.__new__(cls)
        self.group = group
        self.perm = perm
        self.source = source
        return self


def _first_extension(mul_src, mul_dst, gen_ids, choices):
    """First total injective map on generator images from choices, or None.

    choices[i] lists the candidate images of gen_ids[i]. The tree of
    partial images is walked depth first in candidate order, each node
    extended over the subgroup its generators generate, so a branch dies
    at its first bad product and the leaf returned is the first total one
    in lexicographic order of the image tuple. A total leaf satisfies
    maps[x*g] = maps[x]*maps[g] for every x and generator g and is
    injective, so between groups of one order it is an isomorphism; None
    means no such map exists with these choices.

    The walk keeps one state: maps (-1 where unset), hit (the images
    taken) and covered (the ids of the subgroup the chosen generators
    generate, in the order they were reached). Extending by gen_ids[depth]
    only appends to covered and sets maps and hit at the appended ids;
    the ids covered before need only the new generator, since they are
    closed under the earlier ones. So covered[old:] is the undo trail: it
    names every entry the extension set. descend clears those entries
    and truncates covered after each candidate, whether the extension
    failed, its subtree held no leaf or a leaf was copied out, so after
    a return of descend the state equals what it was at entry.
    """
    maps = [-1] * len(mul_src)
    maps[0] = 0
    hit = bytearray(len(mul_dst))
    hit[0] = 1
    covered = [0]
    pairs = []

    def extend(old):
        newest = pairs[-1:]
        head = 0
        while head < len(covered):
            x = covered[head]
            head += 1
            row, drow = mul_src[x], mul_dst[maps[x]]
            for g, m in newest if head <= old else pairs:
                y = row[g]
                fy = drow[m]
                if maps[y] < 0:
                    if hit[fy]:
                        return False
                    maps[y] = fy
                    hit[fy] = 1
                    covered.append(y)
                elif maps[y] != fy:
                    return False
        return True

    def descend(depth):
        if depth == len(gen_ids):
            return None if -1 in maps else tuple(maps)
        found = None
        for c in choices[depth]:
            old = len(covered)
            pairs.append((gen_ids[depth], c))
            if extend(old):
                found = descend(depth + 1)
            for y in covered[old:]:
                hit[maps[y]] = 0
                maps[y] = -1
            del covered[old:]
            pairs.pop()
            if found is not None:
                return found
        return None

    return descend(0)


def _label_perm(group, fn, dst=None):
    """Id map induced by a label-level map from group into dst (default group)."""
    index = {lab: i for i, lab in enumerate((dst or group).labels)}
    out = []
    for lab in group.labels:
        img = fn(lab)
        if img not in index:
            raise NotBijective(f"image {img!r} is not an element")
        out.append(index[img])
    return tuple(out)


def central_maps(group):
    """One certified map per pair (i, j), i < dim V, j < dim Z: x -> x*z_j
    where bit i of vcoord[x] is set, else x, with z_j = members[1 << j].
    They are x -> x d(x) for d running over a basis of Hom(V, Z). Raises
    Unsupported as _v_coords does."""
    sc = _v_coords(group)
    mul, vcoord = group.mul, sc.vcoord
    out = []
    for i in range(sc.dim_v):
        for j in range(sc.dim_z):
            z = sc.members[1 << j]
            perm = [mul[x][z] if vcoord[x] >> i & 1 else x for x in range(group.n)]
            out.append(Automorphism(group, perm, "central"))
    return out


def _xi_phi_maps(group):
    """The scaling map xi and the entrywise Frobenius phi of a2 or b2.

    xi is (a, x) -> (lam a, lam^(1 + 2^t) x), t = k for a2 and n for b2.
    """
    ctx = group.meta["ctx"]
    t = group.meta["k"] if group.meta["family"] == "a2" else group.meta["n"]
    lam = ctx.t
    lam_xi = ctx.mul(lam, ctx.frobenius(lam, t))
    xi = Automorphism(
        group,
        _label_perm(group, lambda lab: (ctx.mul(lab[0], lam), ctx.mul(lab[1], lam_xi))),
        "xi",
    )
    phi = Automorphism(
        group,
        _label_perm(group, lambda lab: (ctx.frobenius(lab[0]), ctx.frobenius(lab[1]))),
        "frobenius",
    )
    return [xi, phi]


def _peps_maps(group):
    """alpha: (a, x) -> (eps^3 a, eps^9 x) and beta: (a, x) -> (eps a^4, x^4).

    Both are automorphisms for every generator eps. The product is
    (a, x)(c, y) = (a + c, x + y + f(a, c)) with f(a, c) = Tr(a c^2 eps)
    and Tr(u) = u + u^8, which is GF(8)-linear and commutes with the
    Frobenius. eps^9 has order 7, so it lies in GF(8), and
    f(eps^3 a, eps^3 c) = Tr(eps^9 a c^2 eps) = eps^9 f(a, c); and
    f(eps a^4, eps c^4) = Tr((a c^2 eps)^4) = f(a, c)^4. Both maps are
    additive bijections on each coordinate, so they respect the product.
    """
    ctx = group.meta["ctx"]
    eps = group.meta["eps"]
    e3, e9 = ctx.pow(eps, 3), ctx.pow(eps, 9)
    alpha = _label_perm(group, lambda lab: (ctx.mul(e3, lab[0]), ctx.mul(e9, lab[1])))
    beta = _label_perm(
        group, lambda lab: (ctx.mul(eps, ctx.pow(lab[0], 4)), ctx.frobenius(lab[1], 2))
    )
    return [Automorphism(group, alpha), Automorphism(group, beta)]


_FAMILY_MAPS = {"a2": _xi_phi_maps, "b2": _xi_phi_maps, "peps": _peps_maps}


def known_aut_generators(group):
    """Central maps plus the family's scaling/Frobenius generators."""
    family = group.meta.get("family")
    if family not in _FAMILY_MAPS:
        raise Unsupported(f"no known generator family for {family!r}")
    return central_maps(group) + _FAMILY_MAPS[family](group)


class FusionPartition:
    """Orbits of a set of automorphisms on element ids."""

    __slots__ = ("classes", "sizes")

    def __init__(self, classes):
        self.classes = tuple(tuple(sorted(c)) for c in sorted(classes, key=min))
        self.sizes = tuple(sorted(len(c) for c in self.classes))


def _perms(group, auts):
    """The perms of auts; NotAHomomorphism unless each is a map of group,
    since a map of another group of the same order passes as a permutation."""
    for a in auts:
        if a.group is not group:
            raise NotAHomomorphism("an automorphism of another group was passed")
    return [a.perm for a in auts]


def fusion_classes(group, auts):
    return FusionPartition(orbits(_perms(group, auts), group.n))


def _v_coords(group):
    """group.special() if the group is special with its generators a basis of V."""
    sc = group.special()
    if sc is None or sc.vcoord is None:
        raise Unsupported("group is not special, or its generators are not a basis of G/Z")
    return sc


def commutator_matrix(group):
    """GF(2) matrix of the commutator map from the wedge basis of V into Z."""
    sc = _v_coords(group)
    comm, lift, coord = group.commutator, sc.lift, sc.coord
    rows = [coord[comm(lift[1 << i], lift[1 << j])] for i, j in wedge_pairs(sc.dim_v)]
    return Matrix(GF2, [unpack(c, sc.dim_z) for c in rows])


def aut_group_order(group, auts):
    """Order of the permutation group the maps generate (1 for none).

    The exact-sequence count of _exact_sequence_order when it applies,
    else a Schreier-Sims chain on all group.n elements.
    """
    order = _exact_sequence_order(group, auts)
    if order is None:
        order = StabChain(_perms(group, auts), group.n).order()
    return order


def _exact_sequence_order(group, auts):
    """|<auts>| = |Z|^dim V * |image on V| for a special group, else None.

    Applies when _v_coords(group) does: a special 2-group whose
    generators are a basis of V = G/Z. Then Z = Z(G) = G' = Phi(G) is
    characteristic, V = G/Z, and Aut(G) -> GL(V) has kernel
    K = Hom(V, Z): an automorphism acting trivially on V is x -> x d(x)
    with d: G -> Z a homomorphism, which kills Phi(G) = Z because Z is
    elementary abelian; conversely every d in Hom(V, Z) gives such a
    bijection. So |<auts>| = |<auts> & K| * |image of <auts> in GL(V)|.

    A map whose displacement g^-1 phi(g) lies in Z for every generator g
    of G fixes a spanning set of V, so it lies in K. For phi_d, phi_e in
    K, phi_d(phi_e(x)) = x e(x) d(x) since d kills Z: composition adds
    displacements. The displacement vector over the generators is
    therefore GF(2)-additive, and injective because a homomorphism is
    fixed by its values on generators. The maps in K thus generate all of
    K exactly when their vectors, packed one dim Z block per generator,
    have GF(2) rank dim V * dim Z, and then
    |<auts> & K| = |Z|^dim V. Any other case returns None, and the caller
    runs the full chain. The Z coordinates and the V points come from
    _v_coords, as in verify_lemma31, and the image order from a chain on
    the 2^dim V points of V.
    """
    perms = _perms(group, auts)
    try:
        sc = _v_coords(group)
    except Unsupported:
        return None
    mul, inv, coord, dim_z = group.mul, group.inv, sc.coord, sc.dim_z
    rows = []
    for p in perms:
        moves = [mul[inv[g]][p[g]] for g in group.gens]
        if all(d in coord for d in moves):
            rows.append(pack([coord[d] for d in moves], dim_z))
    if len(echelon(rows, sc.dim_v * dim_z)) != sc.dim_v * dim_z:
        return None
    v_points = sc.points(perms)[0]
    return len(coord) ** sc.dim_v * StabChain(v_points, 1 << sc.dim_v).order()


def _image_candidates(src, dst):
    """Per generator of src, the ids of dst of its order: the search space
    of brute_force_aut and find_isomorphism, bounded to order 64 and 4
    generators."""
    if src.n > 64:
        raise TooLargeForBruteForce(f"order {src.n} exceeds 64")
    if len(src.gens) > 4:
        raise TooLargeForBruteForce(f"{len(src.gens)} generators exceed 4")
    by_order = _ids_by_order(dst)
    return [by_order.get(src.element_order(g), []) for g in src.gens]


def _ids_by_order(group):
    """Element order -> the ids of that order, in id order."""
    by_order = {}
    for x in range(group.n):
        by_order.setdefault(group.element_order(x), []).append(x)
    return by_order


def brute_force_aut(group):
    """Complete automorphism list, by cosets of generator-prefix stabilizers.

    Candidates for each generator g_k are the elements of its order. Let
    A_k be the automorphisms fixing g_0, ..., g_(k-1); A_0 = Aut(G), and
    A_m = {1} for m generators, since an automorphism is determined by
    its generator images.

    Cosets: for each candidate c of g_k, _first_extension, with g_i
    forced to g_i for i < k and g_k to c, returns an automorphism
    alpha_c in A_k with alpha_c(g_k) = c, or None when there is none. It
    is complete: a pruned branch already fails a product or injectivity
    on the subgroup its prefix generates, so no automorphism lies below
    it, and every other branch is walked to its leaves. If beta is in A_k
    and beta(g_k) = c, then s = compose(beta, alpha_c^-1) (beta first)
    fixes g_0, ..., g_k, so s is in A_(k+1) and beta = compose(s, alpha_c).
    Conversely each compose(s, alpha_c) fixes g_0, ..., g_(k-1) and sends
    g_k to alpha_c(g_k) = c. So A_k is the union over c of these cosets.
    Maps in different cosets differ at g_k, and within a coset s ->
    compose(s, alpha_c) is injective, so nothing is listed twice.

    Transversals: the proof needs only some t_c in A_k with t_c(g_k) = c,
    not the first hit alpha_c. alphas holds every map the search has
    returned, at this level and the deeper ones; a level-j map lies in
    A_j, and A_j is inside A_k for j >= k. Level k keeps tree, the
    Schreier tree that permgrp.extend_transversal grows from the root g_k
    over the orbit of g_k under alphas, and words, the inverse words that
    permgrp.transversal_word has formed from it, starting at g_k -> 1: a
    point e = a(d) reached along a gets w_e = compose(a^-1, w_d), so t_e
    = invert(w_e) = compose(t_d, a) is in A_k and sends g_k to
    a(t_d(g_k)) = a(d) = e. A candidate c found in tree takes t_c =
    invert(w_c) as its representative and skips the search; w_c is
    formed on that read, and a word no candidate reads is never formed.
    Any other candidate runs the search, and each map it returns joins
    alphas, its inverse joins inverses, and the orbit is re-closed.
    Both lists are append-only, so a tree edge names the same map
    whenever its word is formed. The coset compose(A_(k+1), t_c) is the
    set of all maps of A_k sending g_k to c, whichever t_c represents
    it, so sorting it gives the same list as sorting compose(A_(k+1),
    alpha_c), and the output does not depend on the choice. tree and
    words are dropped when their level ends.

    Order: the exhaustive tree search over the candidate lists emits its
    automorphisms in lexicographic order of the generator image tuples.
    At level k the first k images are fixed and the cosets come in
    increasing c, so sorting each coset by its image tuple sorts the
    level; A_0 comes out in exactly the tree's order.

    Certificates: each map _first_extension returns passes the
    Automorphism constructor before it joins alphas, and nothing else is
    checked. The rest follows by closure: the identity, which starts
    below and is the root word of every level, is an automorphism; each
    w_c is the identity or a product of inverses of alphas, so t_c =
    invert(w_c) is the identity or a product of alphas; each level's
    maps are products compose(s, t_c) of lower-level maps s and a t_c;
    and products and inverses of bijective homomorphisms that fix 0 are
    bijective homomorphisms that fix 0. So every listed map is an
    automorphism, and Automorphism._product wraps it without a second
    check. The intermediate levels are raw permutations that only feed
    those products.
    """
    cands = _image_candidates(group, group)
    gens = list(group.gens)
    mul = group.mul
    identity = tuple(range(group.n))
    below = [identity]
    alphas = []
    inverses = []
    for k in reversed(range(len(gens))):
        fixed = [[g] for g in gens[:k]]
        tree = {gens[k]: None}
        words = {gens[k]: identity}
        level = []
        for c in cands[k]:
            if c in tree:
                t = invert(transversal_word(tree, words, inverses, c))
            else:
                t = _first_extension(mul, mul, gens, fixed + [[c]] + cands[k + 1 :])
                if t is None:
                    continue
                alphas.append(Automorphism(group, t, "bruteforce").perm)
                inverses.append(invert(t))
                extend_transversal(tree, alphas)
            level += sorted((compose(s, t) for s in below), key=itemgetter(*gens))
        below = level
    return [Automorphism._product(group, perm, "bruteforce") for perm in below]


def is_at_group(group, auts):
    """True when same-order elements always fuse."""
    fp = fusion_classes(group, auts)
    same_order = _ids_by_order(group).values()
    return {frozenset(c) for c in fp.classes} == {frozenset(v) for v in same_order}


def _check(name, computed, expected, **extra):
    """One verify_lemma31 check; it passes when computed equals expected."""
    extra.update(name=name, computed=computed, expected=expected, passed=computed == expected)
    return extra


def verify_lemma31(group, auts=None):
    """Re-derive the special-group automorphism structure from scratch.

    auts are certified known generators, known_aut_generators(group) by
    default; the kernel is their "central" subset. Checks, in order: the
    central maps generate an elementary abelian group of order
    |Z|^dim(V); the fusion class count equals o(V) + o(M) - 1 for the
    induced module actions (orbit counts include the zero vector); and the
    commutator map is an equivariant surjection from the exterior square
    of V onto Z.
    """
    family = group.meta.get("family")
    if family not in _FAMILY_MAPS:
        raise Unsupported(f"no known generator family for {family!r}")
    sc = _v_coords(group)

    dim_v, dim_z = sc.dim_v, sc.dim_z
    checks = []

    if auts is None:
        auts = known_aut_generators(group)
    kernel = [a for a in auts if a.source == "central"]
    k_order = aut_group_order(group, kernel)
    elementary = all(a.order() in (1, 2) for a in kernel) and all(
        compose(a.perm, b.perm) == compose(b.perm, a.perm)
        for i, a in enumerate(kernel)
        for b in kernel[i + 1 :]
    )
    checks.append(_check("central_kernel_order", k_order, len(sc.coord) ** dim_v))
    checks.append(_check("central_kernel_elementary_abelian", elementary, True))

    fp = fusion_classes(group, auts)
    v_points, z_points = sc.points(_perms(group, auts))
    o_v = len(orbits(v_points, 1 << dim_v))
    o_m = len(orbits(z_points, 1 << dim_z))
    checks.append(_check("fusion_orbit_formula", len(fp.classes), o_v + o_m - 1, o_v=o_v, o_m=o_m))

    cmat = commutator_matrix(group)
    bad = sum(
        1
        for vp, zp in zip(v_points, z_points)
        if point_matrix(vp, dim_v).exterior_square() * cmat != cmat * point_matrix(zp, dim_z)
    )
    checks.append(_check("commutator_map_equivariant", bad, 0))
    rank = cmat.rank()
    kernel_dim = len(wedge_pairs(dim_v)) - rank
    checks.append(_check("commutator_map_surjective", rank, dim_z, kernel_dim=kernel_dim))

    return {
        "family": family,
        "order": group.n,
        "dim_v": dim_v,
        "dim_z": dim_z,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }


def isomorphism_from_labels(src, dst, fn):
    """Certified id map from an explicit label-level bijection."""
    if src.n != dst.n:
        raise NotBijective(f"orders differ: {src.n} vs {dst.n}")
    maps = _label_perm(src, fn, dst)
    if len(set(maps)) != src.n:
        raise NotBijective("two elements share an image")
    _certify(src, dst, maps)
    return tuple(maps)


def find_isomorphism(src, dst):
    """Search for an isomorphism by generator images, smallest first.

    Same bounds and pruned search as brute_force_aut; the first total
    injective map in candidate order is a bijection because the orders
    match. Returns the id map, certified by _certify, or
    raises NotFound.
    """
    cands = _image_candidates(src, dst)
    if src.n != dst.n or src.order_profile() != dst.order_profile():
        raise NotFound("order profiles differ")
    maps = _first_extension(src.mul, dst.mul, list(src.gens), cands)
    if maps is None:
        raise NotFound("no isomorphism over the candidate images")
    _certify(src, dst, maps)
    return maps
