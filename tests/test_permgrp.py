"""Tests for orbits, stabilizer chains, derived series, and random search."""

import random

import pytest

from suzuki2 import permgrp
from suzuki2.catalog import (
    SPORADICS,
    entry_gamma_l1,
    entry_path,
    entry_sl,
    load_entry,
    sl_natural_module,
)
from suzuki2.errors import BadShape, NotBijective, NotFound
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix
from suzuki2.permgrp import (
    StabChain,
    compose,
    derived_series,
    extend_transversal,
    identity_perm,
    invert,
    normal_closure,
    orbit,
    orbits,
    perm_order,
    random_subgroup_search,
    transversal_word,
    validate_permutation,
)
from suzuki2.repmod import (
    decompose_lemma22,
    dual,
    exterior_square,
    point_permutations,
    restrict_scalars,
    submodule_module,
)
from suzuki2.verify import _stabilizer_fixed_points


def is_solvable(gens, npoints=None):
    return derived_series(gens, npoints)[-1].order() == 1


def mat_to_perm(m):
    """Permutation of the nonzero GF(2)^n vectors induced by a matrix."""
    n = m.nrows
    images = []
    for v in range(1, 1 << n):
        bits = tuple((v >> j) & 1 for j in range(n))
        w = m.apply(bits)
        images.append(sum(b << j for j, b in enumerate(w)) - 1)
    return tuple(images)


def sl32_gens():
    e = Matrix(GF2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    c = Matrix(GF2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    return [mat_to_perm(e), mat_to_perm(c)]


def gl1_8_gens():
    """Scalar multiplication by t and Frobenius on GF(8)*, points x-1."""
    f8 = FieldContext(3)
    mult = tuple(f8.mul(x, f8.t) - 1 for x in range(1, 8))
    frob = tuple(f8.frobenius(x) - 1 for x in range(1, 8))
    return [mult, frob]


def s4_gens():
    return [(1, 0, 2, 3), (1, 2, 3, 0)]


def a4_gens():
    return [(1, 2, 0, 3), (0, 2, 3, 1)]


def enumerate_group(gens, npoints):
    ident = identity_perm(npoints)
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def orbit_words(gens, start, npoints=None):
    """Orbit of start plus, per point, a generator word reaching it.

    Words are tuples of generator indices applied left to right; the
    caller can replay them in any representation.
    """
    for g in gens:
        validate_permutation(g, npoints)
    words = {start: ()}
    out = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            w = words[pt]
            for k, g in enumerate(gens):
                img = g[pt]
                if img not in words:
                    words[img] = w + (k,)
                    out.append(img)
                    nxt.append(img)
        frontier = nxt
    return out, words


def schreier_generator_words(gens, start, npoints=None):
    """Stabilizer generators of start as (word_to_b, gen_index, word_to_bg).

    Each triple encodes u_b * g * u_bg^-1 where u_w is the transversal
    word; replaying them in another representation yields generators of
    the point stabilizer by Schreier's lemma.
    """
    pts, words = orbit_words(gens, start, npoints)
    out = []
    for b in pts:
        for k, g in enumerate(gens):
            out.append((words[b], k, words[g[b]]))
    return out


def schreier_replay_fixed_points(base_perms, base_point, other_perms, npts):
    """Oracle: replay the first action's Schreier words on the second."""
    stab = []
    for wb, k, wbg in schreier_generator_words(base_perms, base_point, npts):
        p = identity_perm(npts)
        for i in wb:
            p = compose(p, other_perms[i])
        p = compose(p, other_perms[k])
        q = identity_perm(npts)
        for i in wbg:
            q = compose(q, other_perms[i])
        stab.append(compose(p, invert(q)))
    return [w for w in range(1, npts) if all(s[w] == w for s in stab)]


def theorem_dual_modules(case):
    """The two modules a theorem-dual stabilizer-mismatch claim compares."""
    if case == "natural-natural":
        v = sl_natural_module(3, 1)
        return v, v
    if case == "n3-dual":
        v = sl_natural_module(3, 1)
        return v, dual(v)
    u = sl_natural_module(3, 2)
    v = restrict_scalars(u)
    if case == "natural-natural-n6":
        return v, v
    piece = decompose_lemma22(u)["pieces"][0]["space"]
    return v, submodule_module(exterior_square(v), piece)


def test_perm_basics():
    p = (1, 2, 0, 3)
    assert compose(p, invert(p)) == identity_perm(4)
    assert perm_order(p) == 3
    assert perm_order(identity_perm(5)) == 1
    assert perm_order((1, 0, 3, 4, 2)) == 6
    with pytest.raises(NotBijective):
        validate_permutation((0, 0, 1))
    with pytest.raises(BadShape):
        validate_permutation((0, 1), npoints=3)


def test_validate_permutation_rejects_entries_without_an_order():
    # the test needs no order on the entries: 'a' is just not a point
    with pytest.raises(NotBijective):
        validate_permutation((0, "a"))
    with pytest.raises(NotBijective):
        validate_permutation((0, "a"), npoints=2)
    validate_permutation((1, 0))


def test_orbit_under_identity():
    assert orbit([identity_perm(5)], 3) == [3]
    assert orbit([], 2) == [2]


def test_orbit_rejects_a_negative_start():
    # a negative start would index the walk's seen-array from its end
    with pytest.raises(BadShape):
        orbit([(1, 0)], -1)
    with pytest.raises(BadShape):
        orbit([], -1)


def test_orbit_rejects_a_start_past_the_generators():
    # the generators' length bounds the start when npoints is not given
    with pytest.raises(BadShape):
        orbit([(1, 0)], 5)
    with pytest.raises(BadShape):
        orbit([(1, 0)], 2, 2)
    assert orbit([(1, 0)], 1) == [1, 0]


def test_orbit_rejects_a_start_past_npoints_without_generators():
    # without generators, npoints still bounds the start
    with pytest.raises(BadShape):
        orbit([], 5, 3)
    assert orbit([], 2, 3) == [2]


def test_orbit_sl32_transitive():
    gens = sl32_gens()
    orb = orbit(gens, 0)
    assert sorted(orb) == list(range(7))
    # deterministic BFS order
    assert orbit(gens, 0) == orb


def test_orbits_partition():
    # two 2-cycles on 5 points: orbits {0,1}, {2,3}, {4}
    g = (1, 0, 3, 2, 4)
    parts = orbits([g], 5)
    assert parts == [[0, 1], [2, 3], [4]]


def test_orbit_words_replay():
    gens = sl32_gens()
    pts, words = orbit_words(gens, 0)
    assert sorted(pts) == list(range(7))
    for pt, word in words.items():
        x = 0
        for k in word:
            x = gens[k][x]
        assert x == pt


def test_schreier_words_give_stabilizer_elements():
    gens = sl32_gens()
    _, words = orbit_words(gens, 0)
    for wb, k, wg in schreier_generator_words(gens, 0):
        p = identity_perm(7)
        for idx in wb:
            p = compose(p, gens[idx])
        p = compose(p, gens[k])
        u = identity_perm(7)
        for idx in wg:
            u = compose(u, gens[idx])
        elem = compose(p, invert(u))
        assert elem[0] == 0


@pytest.mark.parametrize(
    "case, expected",
    [
        ("n3-dual", []),
        ("n6-summand", []),
        ("natural-natural", [1]),
        # the stabilizer of b in SL3(4) fixes the GF(4)-multiples of b, so
        # the n = 6 mismatch claim can fail: it does, natural against itself
        ("natural-natural-n6", [1, 2, 3]),
    ],
    ids=["n3-dual", "n6-summand", "natural-natural", "natural-natural-n6"],
)
def test_pair_orbit_fixed_points_match_the_schreier_replay(case, expected):
    v, m = theorem_dual_modules(case)
    vp, mp = point_permutations(v), point_permutations(m)
    fixed = _stabilizer_fixed_points(v, m)
    assert fixed == schreier_replay_fixed_points(vp, 1, mp, len(vp[0])) == expected


def test_chain_order_sl32():
    # |GL_3(2)| = (8-1)(8-2)(8-4) = 168
    assert StabChain(sl32_gens()).order() == 168


def test_chain_order_gl1_8():
    # |scalars semidirect field automorphisms| = 3 * 7 = 21
    assert StabChain(gl1_8_gens()).order() == 21


def test_chain_order_s4_and_membership_bruteforce():
    gens = s4_gens()
    chain = StabChain(gens)
    group = enumerate_group(gens, 4)
    assert chain.order() == len(group) == 24
    a4 = StabChain(a4_gens())
    a4_set = enumerate_group(a4_gens(), 4)
    assert a4.order() == len(a4_set) == 12
    for p in group:
        assert a4.contains(p) == (p in a4_set)


def test_membership_rejects_nonlinear_swap():
    gens = sl32_gens()
    chain = StabChain(gens)
    # swapping just two basis vectors, fixing the rest, is not linear
    swap = [0, 1, 2, 3, 4, 5, 6]
    swap[0], swap[1] = swap[1], swap[0]
    assert not chain.contains(tuple(swap))
    for g in gens:
        assert chain.contains(g)


def test_chain_deterministic_rebuild():
    a = StabChain(sl32_gens())
    b = StabChain(sl32_gens())
    assert a.base == b.base
    assert [list(t) for t in a.trans] == [list(t) for t in b.trans]
    assert [sorted(t) for t in a.trans] == [sorted(t) for t in b.trans]


def test_redundant_generator_keeps_order():
    gens = sl32_gens()
    extra = compose(gens[0], gens[1])
    assert StabChain(gens + [extra]).order() == 168
    assert StabChain([identity_perm(7)] + gens).order() == 168


def test_contains_short_products():
    gens = gl1_8_gens()
    chain = StabChain(gens)
    for a in gens:
        for b in gens:
            assert chain.contains(compose(a, b))
            for c in gens:
                assert chain.contains(compose(compose(a, b), c))


def test_contains_rejects_non_permutations():
    s3 = StabChain([(1, 0, 2), (1, 2, 0)])
    assert s3.order() == 6
    # negative entries would index from the end, and 7 past it
    for p in ((0, 1, -1), (2, 1, -3), (1, 0, 7), (0, 0, 1), (0, 1)):
        assert s3.contains(p) is False
    assert s3.contains((2, 0, 1)) is True


def test_trivial_chains():
    assert StabChain([], npoints=5).order() == 1
    assert StabChain([identity_perm(3)]).order() == 1
    assert StabChain([], npoints=5).contains(identity_perm(5))
    assert not StabChain([], npoints=5).contains((1, 0, 2, 3, 4))
    with pytest.raises(BadShape):
        StabChain([])


def test_derived_series_abelian():
    six_cycle = (1, 2, 3, 4, 5, 0)
    series = derived_series([six_cycle])
    assert len(series) == 1
    assert series[0].order() == 1
    assert is_solvable([six_cycle])


def test_derived_series_gl1_8():
    gens = gl1_8_gens()
    series = derived_series(gens)
    assert [c.order() for c in series] == [7, 1]
    assert is_solvable(gens)
    assert series[-1].order() == 1


def test_derived_series_sl32_perfect():
    gens = sl32_gens()
    series = derived_series(gens)
    assert [c.order() for c in series] == [168]
    assert not is_solvable(gens)
    res = series[-1]
    assert res.order() == 168
    # perfect: derived subgroup of the residual is the residual
    assert derived_series(res.gens)[-1].order() == 168


@pytest.mark.parametrize(
    "entry, orders",
    [
        # SL2(32) is perfect: the first derived term is the group itself
        pytest.param(lambda: entry_sl(2, 5), [32736], id="sl2_32"),
        # GammaL1(2^10) = C_1023 : C_10, and [a, frob] = a on C_1023
        pytest.param(lambda: entry_gamma_l1(10), [1023, 1], id="gamma_l1_10"),
    ],
)
def test_derived_series_stops_when_a_term_repeats(entry, orders, monkeypatch):
    terms = []
    real = permgrp.normal_closure

    def one_term(*args):
        terms.append(args)
        if len(terms) > len(orders):
            raise AssertionError("derived series went past its last term")
        return real(*args)

    monkeypatch.setattr(permgrp, "normal_closure", one_term)
    series = derived_series(entry().point_perms())
    assert [c.order() for c in series] == orders
    assert len(terms) == len(orders)


def test_normal_closure_inside_s4():
    gens = s4_gens()
    # normal closure of a double transposition is the Klein four-group
    vgens, vchain = normal_closure(gens, [(1, 0, 3, 2)], 4)
    assert vchain.order() == 4
    for g in vgens:
        assert vchain.contains(g)
    # normal closure of a transposition is all of S4
    _, schain = normal_closure(gens, [(1, 0, 2, 3)], 4)
    assert schain.order() == 24


def test_normal_closure_validates_every_seed():
    gens = s4_gens()
    # -4 indexes like 0, so this seed strips like the transposition
    # (1, 0, 2, 3), a member of S4; only validation rejects it
    with pytest.raises(NotBijective):
        normal_closure(gens, [(1, 0, 2, 3), (1, -4, 2, 3)], 4)
    with pytest.raises(BadShape):
        normal_closure(gens, [(1, 0, 2)], 4)
    with pytest.raises(NotBijective):
        normal_closure([(0, 0, 1, 2)], [(1, 0, 2, 3)], 4)


def test_random_search_trivial_target():
    p, q = random_subgroup_search(s4_gens(), 1, None, seed=7)
    assert p == q == identity_perm(4)


def test_random_search_without_generators():
    # the trivial group is the only subgroup, so order 1 is found and any
    # larger order is refused before the replacement buffer is filled
    assert random_subgroup_search([], 1, None, 1, npoints=3) == (identity_perm(3),) * 2
    with pytest.raises(BadShape, match="no ambient generators"):
        random_subgroup_search([], 2, None, 1, npoints=3)


def test_random_search_finds_a4_in_s4():
    def is_a4(pair):
        chain = StabChain(list(pair), 4)
        return all(chain.contains(g) for g in a4_gens())

    p, q = random_subgroup_search(s4_gens(), 12, is_a4, seed=3)
    assert StabChain([p, q]).order() == 12


def test_random_search_deterministic():
    r1 = random_subgroup_search(s4_gens(), 12, None, seed=11)
    r2 = random_subgroup_search(s4_gens(), 12, None, seed=11)
    assert r1 == r2


def test_random_search_not_found():
    # 5 does not divide 24, so no subgroup of order 5 exists
    with pytest.raises(NotFound):
        random_subgroup_search(s4_gens(), 5, None, seed=1, budget=500)


def genexpr_compose(p, q):
    """The generator-expression product compose() replaced: apply p, then q."""
    return tuple(q[x] for x in p)


def test_compose_matches_genexpr_oracle():
    rng = random.Random(11)
    for n in (0, 1, 2, 64, 1024):
        for _ in range(5):
            p = list(range(n))
            q = list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            p, q = tuple(p), tuple(q)
            got = compose(p, q)
            assert type(got) is tuple
            assert got == genexpr_compose(p, q)
            assert compose(p, list(q)) == got


def random_generators(rng, n):
    """One to three permutations, each moving a random subset of points."""
    gens = []
    for _ in range(rng.randint(1, 3)):
        support = rng.sample(range(n), rng.randint(2, n))
        images = support[:]
        rng.shuffle(images)
        p = list(range(n))
        for x, y in zip(support, images):
            p[x] = y
        gens.append(tuple(p))
    return gens


def test_chain_order_matches_sympy():
    combinatorics = pytest.importorskip("sympy.combinatorics")
    rng = random.Random(2024)
    for _ in range(40):
        n = rng.randint(2, 10)
        gens = random_generators(rng, n)
        chain = StabChain(gens, n)
        ref = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
        assert chain.order() == ref.order(), gens
        probe = list(range(n))
        rng.shuffle(probe)
        assert chain.contains(probe) == ref.contains(combinatorics.Permutation(probe)), gens


def word(chain, level, c):
    """w_c at this level of the chain, through the one word accessor."""
    return transversal_word(chain.trans[level], chain.words[level], chain.inverses[level], c)


def test_chain_transversals_hold_inverses():
    for gens in (sl32_gens(), gl1_8_gens(), s4_gens()):
        chain = StabChain(gens)
        for l, (b, tree) in enumerate(zip(chain.base, chain.trans)):
            assert tree[b] is None
            for c in tree:
                w = word(chain, l, c)
                assert w[c] == b
                assert chain.contains(w)


def test_transversal_walk_and_plain_walk_agree():
    # both walks expand points in the order they were reached, so one fresh
    # transversal walk over a level's strong generators lists the level's
    # orbit as orbit() does; a change to either walk's order shows here
    for gens in (sl32_gens(), gl1_8_gens(), s4_gens()):
        chain = StabChain(gens)
        for l, b in enumerate(chain.base):
            tree = {b: None}
            extend_transversal(tree, chain.strong[l])
            assert list(tree) == orbit(chain.strong[l], b)
            assert tree.keys() == chain.trans[l].keys()
        for part in orbits(gens, len(gens[0])):
            assert part == orbit(gens, part[0])


def test_orbits_validate_every_generator():
    good = (1, 0, 3, 2, 4)
    repeated = (1, 1, 3, 2, 4)
    short = (1, 0, 3, 2)
    for gens in ([repeated], [good, repeated], [good, good, repeated]):
        with pytest.raises(NotBijective):
            orbits(gens, 5)
    for gens in ([short], [good, short]):
        with pytest.raises(BadShape):
            orbits(gens, 5)
    assert orbits([good, good], 5) == [[0, 1], [2, 3], [4]]


def eager_extend(tree, words, gens, inverses):
    """Oracle walk: extend the Schreier tree and form the word of each new
    point as it is reached, w_{s[c]} = compose(s^-1, w_c)."""
    edges = {}
    queue = list(tree)
    for c in queue:
        for i, (s, s_inv) in enumerate(zip(gens, inverses)):
            img = s[c]
            if img not in tree:
                tree[img] = edges[img] = (c, i)
                words[img] = compose(s_inv, words[c])
                queue.append(img)
    return edges


class EagerWordChain(StabChain):
    """Oracle: StabChain with every transversal word formed during the
    orbit walk (eager_extend) and read from words[l] directly."""

    __slots__ = ()

    def _strip(self, p, level, w=None):
        for l in range(level, len(self.base)):
            b = self.base[l]
            t = self.words[l].get(p[b] if w is None else p[w.index(b)])
            if t is None:
                return p, l
            p = compose(p, t)
        return p, len(self.base)

    def _complete(self, level):
        gens, words = self.strong[level], self.words[level]
        edges = eager_extend(self.trans[level], words, gens, self.inverses[level])
        old_points, old_gens = self._tested[level]
        self._tested[level] = (len(words), len(gens))
        if self.order() == self.bound:
            return
        for k, (b, w) in enumerate(list(words.items())):
            for i in range(old_gens if k < old_points else 0, len(gens)):
                s = gens[i]
                c = s[b]
                if edges.get(c) == (b, i):
                    continue
                q = compose(s, words[c])
                if q == w:
                    continue
                q, stuck = self._strip(q, level + 1, w)
                if stuck == len(self.base) and q == w:
                    continue
                self._absorb(compose(invert(w), q), stuck, level)
                if self.order() == self.bound:
                    return


class InvertPerPointChain(EagerWordChain):
    """Oracle: the chain built by inverting w_b once per orbit point.

    Each Schreier generator is formed as compose(w_b^-1, q) and stripped
    as it is, without the sifted-q shortcut, without inverses kept per
    strong generator and without skipping pairs sifted before. Words are
    formed eagerly, as by EagerWordChain.
    """

    __slots__ = ()

    def _complete(self, level):
        gens = self.strong[level]
        words = self.words[level]
        # permgrp.invert, so that a count of its calls sees these too
        eager_extend(self.trans[level], words, gens, [permgrp.invert(s) for s in gens])
        for b in list(words):
            w = words[b]
            u = None
            for s in gens:
                h = compose(s, words[s[b]])
                if h == w:
                    continue
                if u is None:
                    u = permgrp.invert(w)
                h, stuck = self._strip(compose(u, h), level + 1)
                if h == self._id:
                    continue
                if stuck == len(self.base):
                    self._new_level(self._smallest_moved(h))
                for l in range(level + 1, stuck + 1):
                    self.strong[l].append(h)
                for l in range(stuck, level, -1):
                    self._complete(l)


def rebuild_normal_closure(group_gens, seed_perms, npoints):
    """Oracle: normal closure that rebuilds the chain for every new generator."""
    ident = identity_perm(npoints)
    closure_gens = []
    chain = InvertPerPointChain([], npoints)
    queue = [tuple(p) for p in seed_perms if tuple(p) != ident]
    for d in queue:
        if chain.contains(d):
            continue
        closure_gens.append(d)
        chain = InvertPerPointChain(closure_gens, npoints)
        for g in group_gens:
            queue.append(compose(compose(invert(g), d), g))
    return closure_gens, chain


def chain_data(chain):
    """Base, strong generators, Schreier trees in BFS order, and every
    transversal word as the accessor returns it."""
    words = [[word(chain, l, c) for c in tree] for l, tree in enumerate(chain.trans)]
    return chain.base, chain.strong, [list(t.items()) for t in chain.trans], words


def commutators(gens):
    out = []
    for a in gens:
        for b in gens:
            c = compose(compose(invert(a), invert(b)), compose(a, b))
            if c not in out:
                out.append(c)
    return out


ENTRY_PERMS = {
    "sl:4:1": lambda: entry_sl(4, 1).point_perms(),
    "sl:2:5": lambda: entry_sl(2, 5).point_perms(),
    "gamma_l1:10": lambda: entry_gamma_l1(10).point_perms(),
    **{name: lambda name=name: load_entry(entry_path(name)).point_perms() for name in SPORADICS},
}


@pytest.mark.parametrize("name", ENTRY_PERMS)
def test_chain_and_normal_closure_match_the_invert_per_point_oracle(name):
    perms = ENTRY_PERMS[name]()
    npts = len(perms[0])
    assert chain_data(StabChain(perms, npts)) == chain_data(InvertPerPointChain(perms, npts))
    seeds = commutators(perms)
    got_gens, got = normal_closure(perms, seeds, npts)
    want_gens, want = rebuild_normal_closure(perms, seeds, npts)
    assert got_gens == want_gens == list(got.gens)
    assert got.order() == want.order()


def test_random_chains_and_normal_closures_match_the_oracle():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(2, 11)
        gens = random_generators(rng, n)
        assert chain_data(StabChain(gens, n)) == chain_data(InvertPerPointChain(gens, n)), gens
        seeds = random_generators(rng, n)
        got_gens, got = normal_closure(gens, seeds, n)
        want_gens, want = rebuild_normal_closure(gens, seeds, n)
        assert got_gens == want_gens, (gens, seeds)
        assert got.order() == want.order(), (gens, seeds)
        for d in want_gens:
            assert got.contains(d)


def assert_lazy_words_are_eager(gens, n):
    lazy, eager = StabChain(gens, n), EagerWordChain(gens, n)
    assert lazy.base == eager.base and lazy.strong == eager.strong
    assert [list(t.items()) for t in lazy.trans] == [list(t.items()) for t in eager.trans]
    assert lazy._tested == eager._tested
    for l, tree in enumerate(lazy.trans):
        # the words formed so far are some of the tree's points, and each
        # is the eager word, as is every word the accessor forms later
        assert lazy.words[l].keys() <= tree.keys()
        for c, w in list(lazy.words[l].items()):
            assert w == eager.words[l][c]
        for c in tree:
            assert word(lazy, l, c) == eager.words[l][c]
        assert lazy.words[l] == eager.words[l]


@pytest.mark.parametrize("name", ENTRY_PERMS)
def test_lazy_words_equal_the_eager_words_on_catalog_entries(name):
    perms = ENTRY_PERMS[name]()
    assert_lazy_words_are_eager(perms, len(perms[0]))


def test_lazy_words_equal_the_eager_words_on_random_groups():
    rng = random.Random(34)
    for _ in range(150):
        n = rng.randint(2, 11)
        assert_lazy_words_are_eager(random_generators(rng, n), n)


def test_the_tree_walk_composes_nothing_and_words_are_kept(monkeypatch):
    # SL2(32) on 1024 points: the walk from a nonzero vector reaches the
    # other 1022 with no composition; with its order as the bound, the
    # chain stops before it reads most level-0 words, and a word read
    # again is not formed again
    perms = entry_sl(2, 5).point_perms()
    chain = StabChain([], len(perms[0]))
    chain.bound = 32736
    calls = []
    real = permgrp.compose

    def counting(p, q):
        calls.append(None)
        return real(p, q)

    monkeypatch.setattr(permgrp, "compose", counting)
    tree = {1: None}
    extend_transversal(tree, perms)
    assert len(tree) == 1023 and calls == []
    for g in perms:
        chain.add(g)
    assert chain.order() == 32736
    formed = sum(len(words) - 1 for words in chain.words)
    assert formed < len(chain.trans[0]) // 2
    before = len(calls)
    for l, words in enumerate(chain.words):
        for c in list(words):
            assert word(chain, l, c) is words[c]
    assert len(calls) == before


def test_add_grows_a_chain_to_the_generated_group():
    gens = sl32_gens()
    chain = StabChain([], 7)
    assert chain.add(gens[0]) is True
    assert chain.order() == 2
    assert chain.add(gens[0]) is False
    assert chain.add(gens[1]) is True
    assert chain.order() == 168 and chain.gens == tuple(gens)
    assert chain.add(compose(gens[0], gens[1])) is False
    assert chain.gens == tuple(gens)
    with pytest.raises(NotBijective):
        chain.add((0, 0, 1, 2, 3, 4, 5))
    with pytest.raises(BadShape):
        chain.add((1, 0))


def test_constructor_is_the_empty_chain_plus_add_per_generator():
    sl32 = sl32_gens()
    redundant = [identity_perm(7), sl32[0], compose(sl32[0], sl32[1]), sl32[0]]
    redundant += [sl32[1], invert(sl32[1]), compose(sl32[1], sl32[0])]
    for gens in (sl32, gl1_8_gens(), s4_gens(), redundant):
        n = len(gens[0])
        grown = StabChain([], n)
        for g in gens:
            grown.add(g)
        built = StabChain(gens)
        # base, strong generators and transversals in insertion order
        assert chain_data(built) == chain_data(grown)
        assert built.gens == tuple(gens)
    # of the redundant list, add kept only the two generators it needed
    assert grown.gens == (sl32[0], compose(sl32[0], sl32[1]))
    assert built.order() == 168


def count_inverts(monkeypatch, build):
    calls = []
    real = permgrp.invert

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(permgrp, "invert", counting)
    chain = build()
    monkeypatch.undo()
    return chain, len(calls)


def test_sl2_32_chain_inverts_once_per_strong_generator_and_residue(monkeypatch):
    perms = entry_sl(2, 5).point_perms()
    seeds = [g for g in perms if g != identity_perm(len(g))]

    def allowed(chain):
        strong = []
        for level in chain.strong:
            strong += [g for g in level if g not in strong]
        residues = [g for g in strong if g not in seeds]
        return len(strong) + len(residues)

    chain, calls = count_inverts(monkeypatch, lambda: StabChain(perms))
    assert calls <= allowed(chain)
    # the oracle inverts w_b once per orbit point that has a nontrivial
    # Schreier generator, which this bound rejects
    oracle, oracle_calls = count_inverts(monkeypatch, lambda: InvertPerPointChain(perms))
    assert chain_data(oracle) == chain_data(chain)
    assert oracle_calls > allowed(oracle)


def built_with_bound(monkeypatch, perms, bound):
    """The chain of add(g) for each generator under this bound, and the
    number of compositions it took."""
    calls = []
    real = permgrp.compose

    def counting(p, q):
        calls.append(None)
        return real(p, q)

    monkeypatch.setattr(permgrp, "compose", counting)
    chain = StabChain([], len(perms[0]))
    chain.bound = bound
    for g in perms:
        chain.add(g)
    monkeypatch.undo()
    return chain, len(calls)


@pytest.mark.parametrize("name", ENTRY_PERMS)
def test_a_proven_bound_stops_early_and_leaves_the_chain_as_it_was(monkeypatch, name):
    # |G| from the unbounded chain is a proven bound for G itself
    perms = ENTRY_PERMS[name]()
    oracle, full = built_with_bound(monkeypatch, perms, None)
    bounded, calls = built_with_bound(monkeypatch, perms, oracle.order())
    assert chain_data(bounded) == chain_data(oracle)
    assert bounded._tested == oracle._tested
    assert calls <= full
    if name in ("sl:2:5", "gamma_l1:10"):
        assert 2 * calls < full


def test_a_bound_the_chain_passes_stops_it_there(monkeypatch):
    # the bound carries no proof of its own: SL2(32)'s chain passes order
    # 2046 inside one completion, and stops there if told to
    short, _ = built_with_bound(monkeypatch, entry_sl(2, 5).point_perms(), 2046)
    assert short.order() == 2046


def test_sl2_32_chain_forms_each_schreier_generator_once(monkeypatch):
    """q = compose(s, w_{b^s}) is formed once per (level, point, generator)
    and never for a tree edge of the transversal, whose q is w_b. The
    words a product reads are the ones the chain keeps in words[l]."""
    perms = entry_sl(2, 5).point_perms()
    levels = []  # levels of the active _complete calls, innermost last
    formed = []  # (level, p, q) of every compose made inside _complete
    trees = []  # (tree, edges) of every extend_transversal
    real_complete = StabChain._complete
    real_compose = permgrp.compose
    real_extend = permgrp.extend_transversal

    def complete(self, level):
        levels.append(level)
        try:
            real_complete(self, level)
        finally:
            levels.pop()

    def compose_in_complete(p, q):
        if levels:
            formed.append((levels[-1], p, q))
        return real_compose(p, q)

    def extend(tree, gens):
        edges = real_extend(tree, gens)
        trees.append((tree, edges))
        return edges

    monkeypatch.setattr(StabChain, "_complete", complete)
    monkeypatch.setattr(permgrp, "compose", compose_in_complete)
    monkeypatch.setattr(permgrp, "extend_transversal", extend)
    chain = StabChain(perms)
    monkeypatch.undo()

    # a Schreier product composes a strong generator of its level with a
    # transversal word of that level; the operands are the stored objects
    strong_at = [{id(s): i for i, s in enumerate(level)} for level in chain.strong]
    point_at = [{id(w): c for c, w in words.items()} for words in chain.words]
    pairs = []
    for level, p, q in formed:
        i, c = strong_at[level].get(id(p)), point_at[level].get(id(q))
        if i is not None and c is not None:
            pairs.append((level, p.index(c), i))
    level_of = {id(trans): level for level, trans in enumerate(chain.trans)}
    tree = {(level_of[id(trans)], b, i) for trans, edges in trees for b, i in edges.values()}
    every = {
        (level, b, i)
        for level, trans in enumerate(chain.trans)
        for b in trans
        for i in range(len(chain.strong[level]))
    }
    assert len(pairs) == len(set(pairs))
    assert not tree & set(pairs)
    assert tree | set(pairs) == every
    assert len(tree) == sum(len(trans) - 1 for trans in chain.trans)
