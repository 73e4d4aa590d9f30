"""Permutation-group machinery: orbits, stabilizer chains, derived series,
and seeded random subgroup discovery.

A permutation on points 0..n-1 is a plain tuple of images (the array is
the whole data, so no wrapper class). Composition applies the left
factor first, compose(p, q)(x) = q(p(x)), matching the row-vector
convention of the matrix actions that feed this module.

Every orbit in the package comes from one of two breadth-first walks,
both with the point list as its own queue: _walk marks points in a
bytearray (orbit, orbits and the unvalidated _trusted_orbits), and
extend_transversal grows a Schreier tree, point -> (parent, generator
index), and composes nothing. transversal_word forms a point's inverse
word from the tree when it is first read and keeps it. StabChain and
automorphisms.brute_force_aut share both.

Stabilizer chains are built by a deterministic incremental
Schreier-Sims, and every chain grows the one way, by StabChain.add: the
constructor adds its generators one at a time to the empty chain, as
normal_closure and catalog.verify_entry do with theirs. Base points are
always the smallest point moved by the permutation that forces them,
orbits grow in BFS insertion order, and Schreier trees are extend-only,
so identical generator lists reproduce identical chains. A caller that
has proven the group inside some H may set StabChain.bound = |H|, and
the chain stops testing Schreier pairs at that order; the class
docstring proves that it is then the chain built without the bound.
"""

import random
from math import lcm
from operator import itemgetter

from .errors import BadShape, NotBijective, NotFound, Unsupported

MAX_POINTS = 10**6
PR_BUFFER = 10
PR_BURN_IN = 50
DEFAULT_BUDGET = 10**5


def identity_perm(n):
    return tuple(range(n))


def compose(p, q):
    """Apply p, then q.

    itemgetter(*p)(q) is the tuple (q[p[0]], ..., q[p[n-1]]), which is
    compose(p, q) by definition, built in C instead of by a generator. It
    returns a bare item for a single argument and cannot be built from
    none, so lengths 0 and 1 keep the generator.
    """
    if len(p) >= 2:
        return itemgetter(*p)(q)
    return tuple(q[x] for x in p)


def invert(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def perm_order(p):
    seen = [False] * len(p)
    orders = [1]
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        orders.append(length)
    return lcm(*orders)


def _point_count(gens, npoints):
    """npoints if given, else the length of the first generator."""
    if npoints is None:
        if not gens:
            raise BadShape("npoints required when there are no generators")
        npoints = len(gens[0])
    return npoints


def validate_permutation(p, npoints=None):
    """Raise unless p lists each of 0..len(p)-1 once (and has npoints entries).

    The test is set(p) == set(range(len(p))): len(p) entries with that set
    are that many distinct points. It is made as "len(p) distinct entries,
    among them every point", since issuperset walks the range without
    building a second set. Unlike sorting, it needs no order on the
    entries.
    """
    if npoints is not None and len(p) != npoints:
        raise BadShape(f"permutation on {len(p)} points, expected {npoints}")
    images = set(p)
    if len(images) != len(p) or not images.issuperset(range(len(p))):
        raise NotBijective("images are not a bijection")


def orbit(gens, start, npoints=None):
    """Closure of {start} under the generators, in BFS order.

    The points are 0..n-1, with n = npoints or the generators' length;
    with neither, any start >= 0 is its own orbit.
    """
    if npoints is None and gens:
        npoints = len(gens[0])
    for g in gens:
        validate_permutation(g, npoints)
    if start < 0 or (npoints is not None and start >= npoints):
        raise BadShape(f"start point {start} outside the point range")
    return _trusted_orbits(gens, npoints if npoints is not None else start + 1, [start])[0]


def orbits(gens, npoints):
    """All orbits, each in BFS order, starting from the smallest unseen point."""
    for g in gens:
        validate_permutation(g, npoints)
    return _trusted_orbits(gens, npoints)


def _trusted_orbits(gens, npoints, starts=None):
    """The orbits through starts (default: every point), unvalidated.

    Exact for generators that are bijections of range(npoints): _walk
    returns the forward closure of its start, and a permutation of a
    finite set has an inverse that is one of its positive powers, so
    that closure is the orbit. A start already reached lies in an orbit
    listed before and is skipped, so each orbit appears once, from its
    first start. orbit and orbits validate caller input and then call
    this. The only other caller is repmod, on the maps of
    point_permutations, which certifies each one as a bijection (its
    unit images are independent); code outside permgrp and repmod walks
    those maps through repmod.point_orbits.
    """
    seen = bytearray(npoints)
    if starts is None:
        starts = range(npoints)
    return [_walk(gens, s, seen) for s in starts if not seen[s]]


def _walk(gens, start, seen):
    """The orbit of start in BFS order, marking its points in seen.

    The list is its own queue: points are expanded in the order they
    were reached, which is the level-by-level order.
    """
    seen[start] = 1
    part = [start]
    for pt in part:
        for g in gens:
            img = g[pt]
            if not seen[img]:
                seen[img] = 1
                part.append(img)
    return part


def extend_transversal(tree, gens):
    """Close the Schreier tree under gens, in BFS order; compose nothing.

    tree maps each point reached so far to (parent, i), the point it was
    first reached from and the index of the generator that took it
    there, and the root, its first key, to None. Existing points are
    walked again, so the tree may be extended as gens grows, and its
    insertion order stays the BFS order: each point follows its parent.

    Returns the edges this call added, {s[c]: (c, i)} with s = gens[i].
    For such an edge, compose(s, w_{s[c]}) = s s^-1 w_c = w_c
    (transversal_word), so the Schreier generator of (c, s) is the
    identity by construction.
    """
    edges = {}
    queue = list(tree)
    for c in queue:
        for i, s in enumerate(gens):
            img = s[c]
            if img not in tree:
                tree[img] = edges[img] = (c, i)
                queue.append(img)
    return edges


def transversal_word(tree, words, inverses, c):
    """w_c, the word sending c back to the root of tree, formed on first read.

    words holds the words formed so far and starts as {root: identity};
    inverses[i] is the inverse of generator i of the tree. For the edge
    c -> (parent, i), u_c = u_parent s with s = gens[i], so w_c =
    compose(s^-1, w_parent). The path up to the nearest kept word is
    walked without recursion, since a tree may be as deep as its orbit
    is long, and each word on it is formed with one composition and kept.
    """
    path = []
    while c not in words:
        path.append(c)
        c = tree[c][0]
    w = words[c]
    for c in reversed(path):
        w = words[c] = compose(inverses[tree[c][1]], w)
    return w


class StabChain:
    """Deterministic stabilizer chain with order and membership tests.

    trans[l] is the Schreier tree of level l: it maps each point c of the
    level-l basic orbit to (parent, i), an edge along strong[l][i], and
    base[l] to None; its insertion order is the BFS order of the orbit.
    words[l] keeps the inverses w_c = u_c^-1 of the transversal elements
    formed so far, where u_c sends base[l] to c. Only inverses are
    formed, because every use needs them:

    - Extending the orbit from c along a strong generator s reaches c^s
      with u_{c^s} = u_c s, so w_{c^s} = s^-1 w_c (transversal_word).
      inverses[l][i] is strong[l][i]^-1, inverted once when the
      generator joins the chain.
    - Stripping p at level l divides by the coset representative of
      base[l]^p, i.e. replaces p by p u^-1 = p w.
    - The Schreier generator of (b, s) is sigma = u_b s u_{b^s}^-1 =
      w_b^-1 q with q = s w_{b^s}, and it is the identity exactly when
      q = w_b.

    Sifting q instead of sigma. Stripping multiplies on the right only,
    so stripping sigma = w_b^-1 q through levels l, l+1, ... yields
    w_b^-1 q t_l t_{l+1} ..., where the t are the transversal words
    chosen by the base images of the running product. The base image of
    w_b^-1 x at beta is x(w_b^-1(beta)) = x[w_b.index(beta)], so _strip
    reads the images of sigma's running product off q's running product
    without forming sigma: the same t are chosen, the strip stops at the
    same level, and the residue is w_b^-1 q'. It is the identity exactly
    when q' = w_b, and w_b is inverted only to form a residue that
    joins the strong generators. The sifted generators, their order and
    their residues are those of stripping sigma, so the chain (base,
    orbits in BFS order, strong generators) is the one forward
    transversals build.

    Words formed on first read. extend_transversal walks the orbit and
    composes nothing; _strip and _complete read w_c through
    transversal_word, which forms it, and any ancestor not formed yet,
    with one composition each and keeps it in words[l]. Tree edges, and
    the strong[l] and inverses[l] entries their indexes name, are
    append-only: an edge never changes once made, and its generator
    stays the same permutation. By induction along the path to the root,
    w_c is the same permutation whether it is formed early or late, and
    it is the word an eager walk forms when c joins the orbit. So every
    read returns the eager word, every strip and test goes as it would
    with eager words, and the chain is unchanged: base, orbits in BFS
    order, strong generators and _tested. The eager walk forms each word
    once, and a kept word is never formed again, so lazy words never
    compose more than eager ones; most are never read when the bound
    below stops the chain early. order() reads only the tree sizes.

    Every chain grows by add(g), and the constructor is the empty chain
    followed by add(g) for each generator in turn. add strips g from
    level 0: a member strips to the identity and changes nothing, so a
    redundant generator joins no level. Any other g leaves a residue h,
    stuck at some level (past the last one, h opens a new level at its
    smallest moved point); h joins the strong generators of every level
    down to that one, and those levels are completed again, the deepest
    first. gens lists the generators given, members included.

    Each Schreier pair is tested once. _tested[l] = (points, gens) says
    that the first `points` orbit points of level l, each with the first
    `gens` strong generators, were tested by an earlier _complete(l); the
    next call tests only new points with every generator and old points
    with new generators. Skipping the rest changes nothing. Strong
    generators and transversals only grow, so an old pair (b, s) has the
    same sigma as when it was tested, and then sigma was the identity,
    sifted to it, or left a residue that was absorbed: either way sigma
    lies in <S_{l+1}>, which only grows. The levels below l are complete
    whenever _complete(l) meets a pair, so sifting sigma again would end
    in the identity, where the loop continues without a change. A tree
    edge that this call's extend_transversal added has q = w_b by
    construction, where the loop continues too. So the skipped pairs are
    exactly ones that leave the chain as it was, and the chain equals the
    one that tests every pair.

    Stopping at a proven order. bound, None by default, may be set to
    |H| for a group H that the caller has proven to contain G = <gens>;
    _complete then stops testing pairs once order() == bound. The strong
    generators of level l lie in G and fix base[:l], so the level's
    orbit lies in the basic orbit of base[l] under G_(base[:l]), and
    order(), the product of the orbit lengths, is at most
    |G : G_(base)| <= |G| <= |H|. At equality every orbit is a full
    basic orbit and G_(base) = 1, so every element of G strips to the
    identity: the chain is complete, and every pair left untested would
    sift its sigma to the identity and change nothing. The chain with a
    bound is therefore the chain without it, _tested included.
    """

    __slots__ = (
        "npoints", "gens", "base", "strong", "inverses", "trans", "words", "bound",
        "_tested", "_id",
    )

    def __init__(self, gens, npoints=None):
        gens = [tuple(g) for g in gens]
        npoints = _point_count(gens, npoints)
        if npoints > MAX_POINTS:
            raise Unsupported(f"point set larger than {MAX_POINTS}")
        for g in gens:
            validate_permutation(g, npoints)
        self.npoints = npoints
        self.gens = ()
        self._id = identity_perm(npoints)
        self.base = []
        self.strong = []
        self.inverses = []
        self.trans = []
        self.words = []
        self.bound = None
        self._tested = []
        for g in gens:
            self._add(g)
        self.gens = tuple(gens)

    def _smallest_moved(self, p):
        for x in range(self.npoints):
            if p[x] != x:
                return x
        raise NotBijective("identity has no moved point")

    def _new_level(self, point):
        self.base.append(point)
        self.strong.append([])
        self.inverses.append([])
        self.trans.append({point: None})
        self.words.append({point: self._id})
        self._tested.append((0, 0))

    def _strip(self, p, level, w=None):
        """Strip p, or w^-1 p without forming it, from this level down.

        Returns (p', stuck): the residue is p' (or w^-1 p'), and stuck is
        the level whose orbit misses its base image, or len(base).
        """
        base, trans = self.base, self.trans
        for l in range(level, len(base)):
            b = base[l]
            c = p[b] if w is None else p[w.index(b)]
            if c not in trans[l]:
                return p, l
            p = compose(p, transversal_word(trans[l], self.words[l], self.inverses[l], c))
        return p, len(base)

    def _absorb(self, h, stuck, level):
        """Add the non-identity residue h, stuck at level stuck, as a strong
        generator of the levels below level, and complete them again."""
        if stuck == len(self.base):
            self._new_level(self._smallest_moved(h))
        h_inv = invert(h)
        for l in range(level + 1, stuck + 1):
            self.strong[l].append(h)
            self.inverses[l].append(h_inv)
        for l in range(stuck, level, -1):
            self._complete(l)

    def _complete(self, level):
        """Make the chain below this level absorb all its Schreier generators.

        Only pairs not tested before and not tree edges are sifted; the
        class docstring proves that the skipped ones change nothing.
        """
        gens, inverses = self.strong[level], self.inverses[level]
        tree, words = self.trans[level], self.words[level]
        edges = extend_transversal(tree, gens)
        old_points, old_gens = self._tested[level]
        self._tested[level] = (len(tree), len(gens))
        if self.order() == self.bound:
            return
        for k, b in enumerate(list(tree)):
            for i in range(old_gens if k < old_points else 0, len(gens)):
                s = gens[i]
                c = s[b]
                if edges.get(c) == (b, i):
                    continue
                q = compose(s, transversal_word(tree, words, inverses, c))
                w = transversal_word(tree, words, inverses, b)
                if q == w:
                    continue
                q, stuck = self._strip(q, level + 1, w)
                if stuck == len(self.base) and q == w:
                    continue
                self._absorb(compose(invert(w), q), stuck, level)
                if self.order() == self.bound:
                    return

    def add(self, g):
        """Extend the group by g; False, changing nothing, if g is a member."""
        g = tuple(g)
        validate_permutation(g, self.npoints)
        return self._add(g)

    def _add(self, g):
        """add() for a g known to be a permutation on npoints."""
        h, stuck = self._strip(g, 0)
        if h == self._id:
            return False
        self.gens += (g,)
        self._absorb(h, stuck, -1)
        return True

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def contains(self, p):
        """Membership; False for anything not a permutation of the points."""
        p = tuple(p)
        try:
            validate_permutation(p, self.npoints)
        except (BadShape, NotBijective):
            return False
        residue, _ = self._strip(p, 0)
        return residue == self._id

    def __repr__(self):
        return f"StabChain(order={self.order()}, base={self.base})"


def normal_closure(group_gens, seed_perms, npoints, bound=None):
    """Generators and chain of the smallest normal subgroup containing seeds.

    One chain grows by add() without its check: each seed or conjugate
    outside it joins the closure generators (chain.gens), and its
    conjugates by the group generators are queued. The group generators
    and the seeds are validated once, here; a queued conjugate g^-1 d g is
    a product of validated permutations, so it is a permutation too.
    bound, if given, is the caller's proven bound on the closure's order
    (StabChain.bound).
    """
    group_gens = [tuple(g) for g in group_gens]
    for g in group_gens:
        validate_permutation(g, npoints)
    inverses = [invert(g) for g in group_gens]
    chain = StabChain([], npoints)
    chain.bound = bound
    queue = [tuple(p) for p in seed_perms]
    for d in queue:
        validate_permutation(d, npoints)
    for d in queue:
        if chain._add(d):
            for g, g_inv in zip(group_gens, inverses):
                queue.append(compose(compose(g_inv, d), g))
    return list(chain.gens), chain


def derived_series(gens, npoints=None, bound=None):
    """Successive derived terms, starting at the first, until they stabilize.

    Each term D' is a subgroup of the term D before it, so D' = D exactly
    when D' contains the generators of D: that test stops the series
    without building a chain of D only to read its order.

    D' is the normal closure of the commutators [a, b] = a^-1 b^-1 a b of
    D's generators, taken only for a listed before b: [a, a] = 1, and
    [b, a] = [a, b]^-1 lies in any subgroup holding [a, b]. Over all
    ordered pairs, in the same order, normal_closure would meet each
    [b, a] after [a, b] and skip it as a member, so it returns the same
    generators from these seeds alone.

    bound, if given, is a proven bound on |G'| for the first term's chain
    (StabChain.bound); later terms have none.
    """
    npoints = _point_count(gens, npoints)
    series = []
    current = [tuple(g) for g in gens]
    while True:
        comms = []
        seen = set()
        inverses = [invert(a) for a in current]
        for i, (a, a_inv) in enumerate(zip(current, inverses)):
            for b, b_inv in zip(current[i + 1 :], inverses[i + 1 :]):
                c = compose(compose(a_inv, b_inv), compose(a, b))
                if c not in seen:
                    seen.add(c)
                    comms.append(c)
        dgens, dchain = normal_closure(current, comms, npoints, bound)
        bound = None
        series.append(dchain)
        if dchain.order() == 1 or all(dchain.contains(g) for g in current):
            return series
        current = dgens


def random_subgroup_search(
    ambient_gens, target_order, predicate, seed, budget=DEFAULT_BUDGET, npoints=None
):
    """Seeded product-replacement hunt for a two-generator subgroup.

    Draws element pairs from a product-replacement buffer and returns
    the first pair whose generated subgroup has exactly target_order and
    satisfies the predicate. Identical seeds replay identical searches.
    """
    ambient_gens = [tuple(g) for g in ambient_gens]
    npoints = _point_count(ambient_gens, npoints)
    for g in ambient_gens:
        validate_permutation(g, npoints)
    if target_order == 1:
        ident = identity_perm(npoints)
        if predicate is None or predicate((ident, ident)):
            return ident, ident
        raise NotFound("trivial group rejected by predicate")
    if not ambient_gens:
        raise BadShape(f"no ambient generators for a subgroup of order {target_order}")
    rng = random.Random(seed)
    buf = [ambient_gens[i % len(ambient_gens)] for i in range(PR_BUFFER)]

    def pr_step():
        i = rng.randrange(PR_BUFFER)
        j = rng.randrange(PR_BUFFER - 1)
        if j >= i:
            j += 1
        other = buf[j] if rng.randrange(2) else invert(buf[j])
        buf[i] = compose(buf[i], other) if rng.randrange(2) else compose(other, buf[i])

    for _ in range(PR_BURN_IN):
        pr_step()
    for _ in range(budget):
        pr_step()
        i = rng.randrange(PR_BUFFER)
        j = rng.randrange(PR_BUFFER - 1)
        if j >= i:
            j += 1
        p, q = buf[i], buf[j]
        if target_order % perm_order(p) or target_order % perm_order(q):
            continue
        chain = StabChain([p, q], npoints)
        if chain.order() == target_order and (predicate is None or predicate((p, q))):
            return p, q
    raise NotFound(
        f"no subgroup of order {target_order} found within budget {budget}"
    )
