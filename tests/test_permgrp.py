"""Tests for orbits, stabilizer chains, derived series, and random search."""

import random

import pytest

from suzuki2.errors import BadShape, NotBijective, NotFound
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix
from suzuki2.permgrp import (
    StabChain,
    compose,
    derived_series,
    identity_perm,
    invert,
    is_solvable,
    normal_closure,
    orbit,
    orbit_words,
    orbits,
    perfect_residual,
    perm_order,
    random_subgroup_search,
    schreier_generator_words,
    validate_permutation,
)


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


def test_orbit_under_identity():
    assert orbit([identity_perm(5)], 3) == [3]
    assert orbit([], 2) == [2]


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
    assert a.orbit_order == b.orbit_order
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
    assert perfect_residual(gens).order() == 1


def test_derived_series_sl32_perfect():
    gens = sl32_gens()
    series = derived_series(gens)
    assert [c.order() for c in series] == [168]
    assert not is_solvable(gens)
    res = perfect_residual(gens)
    assert res.order() == 168
    # perfect: derived subgroup of the residual is the residual
    assert derived_series(res.gens)[-1].order() == 168


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


def test_random_search_trivial_target():
    p, q = random_subgroup_search(s4_gens(), 1, None, seed=7)
    assert p == q == identity_perm(4)


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


def test_chain_transversals_hold_inverses():
    for gens in (sl32_gens(), gl1_8_gens(), s4_gens()):
        chain = StabChain(gens)
        for b, trans in zip(chain.base, chain.trans):
            for c, w in trans.items():
                assert w[c] == b
                assert chain.contains(w)


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
