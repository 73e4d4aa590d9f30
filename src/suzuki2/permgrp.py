"""Permutation-group machinery: orbits, stabilizer chains, derived series,
and seeded random subgroup discovery.

A permutation on points 0..n-1 is a plain tuple of images (the array is
the whole data, so no wrapper class). Composition applies the left
factor first, compose(p, q)(x) = q(p(x)), matching the row-vector
convention of the matrix actions that feed this module.

Stabilizer chains are built by a deterministic Schreier-Sims: base
points are always the smallest point moved by the permutation that
forces them, orbits grow in BFS insertion order, and transversals are
extend-only, so identical generator lists reproduce identical chains.
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


def validate_permutation(p, npoints=None):
    if npoints is not None and len(p) != npoints:
        raise BadShape(f"permutation on {len(p)} points, expected {npoints}")
    if sorted(p) != list(range(len(p))):
        raise NotBijective("images are not a bijection")


def orbit(gens, start, npoints=None):
    """Closure of {start} under the generators, in BFS order."""
    for g in gens:
        validate_permutation(g, npoints)
    return _orbit(gens, start)


def _orbit(gens, start):
    """orbit() on generators the caller has already validated."""
    out = [start]
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for pt in frontier:
            for g in gens:
                img = g[pt]
                if img not in seen:
                    seen.add(img)
                    out.append(img)
                    nxt.append(img)
        frontier = nxt
    return out


def orbits(gens, npoints):
    """All orbits, each in BFS order, starting from the smallest unseen point."""
    for g in gens:
        validate_permutation(g, npoints)
    seen = set()
    parts = []
    for start in range(npoints):
        if start in seen:
            continue
        part = _orbit(gens, start)
        seen.update(part)
        parts.append(part)
    return parts


def orbit_words(gens, start, npoints=None):
    """Orbit of start plus, per point, a generator word reaching it.

    Words are tuples of generator indices applied left to right; the
    caller can replay them in any representation (matrices included).
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


class StabChain:
    """Deterministic stabilizer chain with order and membership tests.

    trans[l] maps each point c of the level-l basic orbit to the inverse
    w_c = u_c^-1 of its transversal element u_c, where u_c sends base[l]
    to c. Only inverses are stored, because every use needs them:

    - Extending the orbit from c along a strong generator s reaches c^s
      with u_{c^s} = u_c s, so w_{c^s} = s^-1 w_c.
    - Stripping p at level l divides by the coset representative of
      base[l]^p, i.e. replaces p by p u^-1 = p w.
    - The Schreier generator of (b, s) is u_b s u_{b^s}^-1 = w_b^-1 (s w_{b^s}),
      and it is the identity exactly when s w_{b^s} = w_b, which needs no
      inverse. Each w is the inverse of the u a forward transversal would
      hold, so the same generators reach _strip in the same order and the
      chain (base, orbits, strong generators) is the one forward
      transversals build.

    Keeping both directions would double the memory of a chain, so _complete
    inverts w_b at most once per orbit point, and only when some Schreier
    generator at b is not the identity.
    """

    __slots__ = ("npoints", "gens", "base", "strong", "trans", "orbit_order", "_id")

    def __init__(self, gens, npoints=None):
        gens = [tuple(g) for g in gens]
        if npoints is None:
            if not gens:
                raise BadShape("npoints required when there are no generators")
            npoints = len(gens[0])
        if npoints > MAX_POINTS:
            raise Unsupported(f"point set larger than {MAX_POINTS}")
        for g in gens:
            validate_permutation(g, npoints)
        self.npoints = npoints
        self.gens = tuple(gens)
        self._id = identity_perm(npoints)
        self.base = []
        self.strong = []
        self.trans = []
        self.orbit_order = []
        seeds = [g for g in gens if g != self._id]
        for g in seeds:
            if all(g[b] == b for b in self.base):
                self._new_level(self._smallest_moved(g))
        for level in range(len(self.base)):
            self.strong[level] = [
                g for g in seeds if all(g[b] == b for b in self.base[:level])
            ]
        for level in range(len(self.base) - 1, -1, -1):
            self._complete(level)

    def _smallest_moved(self, p):
        for x in range(self.npoints):
            if p[x] != x:
                return x
        raise NotBijective("identity has no moved point")

    def _new_level(self, point):
        self.base.append(point)
        self.strong.append([])
        self.trans.append({})
        self.orbit_order.append([])

    def _extend_orbit(self, level):
        b = self.base[level]
        trans = self.trans[level]
        order = self.orbit_order[level]
        if b not in trans:
            trans[b] = self._id
            order.append(b)
        gens = self.strong[level]
        inverses = [invert(s) for s in gens]
        frontier = list(order)
        while frontier:
            nxt = []
            for pt in frontier:
                w = trans[pt]
                for s, s_inv in zip(gens, inverses):
                    img = s[pt]
                    if img not in trans:
                        trans[img] = compose(s_inv, w)
                        order.append(img)
                        nxt.append(img)
            frontier = nxt

    def _strip(self, p, level):
        for l in range(level, len(self.base)):
            w = self.trans[l].get(p[self.base[l]])
            if w is None:
                return p, l
            p = compose(p, w)
        return p, len(self.base)

    def _complete(self, level):
        """Make the chain below this level absorb all its Schreier generators."""
        self._extend_orbit(level)
        trans = self.trans[level]
        for b in list(self.orbit_order[level]):
            w = trans[b]
            u = None
            for s in self.strong[level]:
                h = compose(s, trans[s[b]])
                if h == w:
                    continue
                if u is None:
                    u = invert(w)
                h, stuck = self._strip(compose(u, h), level + 1)
                if h == self._id:
                    continue
                if stuck == len(self.base):
                    self._new_level(self._smallest_moved(h))
                for l in range(level + 1, stuck + 1):
                    self.strong[l].append(h)
                for l in range(stuck, level, -1):
                    self._complete(l)

    def order(self):
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def contains(self, p):
        p = tuple(p)
        if len(p) != self.npoints:
            return False
        residue, _ = self._strip(p, 0)
        return residue == self._id

    def __repr__(self):
        return f"StabChain(order={self.order()}, base={self.base})"


def normal_closure(group_gens, seed_perms, npoints):
    """Generators and chain of the smallest normal subgroup containing seeds."""
    ident = identity_perm(npoints)
    closure_gens = []
    chain = StabChain([], npoints)
    queue = [tuple(p) for p in seed_perms if tuple(p) != ident]
    while queue:
        d = queue.pop(0)
        if chain.contains(d):
            continue
        closure_gens.append(d)
        chain = StabChain(closure_gens, npoints)
        for g in group_gens:
            queue.append(compose(compose(invert(g), d), g))
    return closure_gens, chain


def derived_series(gens, npoints=None):
    """Successive derived terms, starting at the first, until they stabilize."""
    if npoints is None:
        if not gens:
            raise BadShape("npoints required when there are no generators")
        npoints = len(gens[0])
    series = []
    current = [tuple(g) for g in gens]
    prev_order = StabChain(current, npoints).order()
    while True:
        comms = []
        seen = set()
        for a in current:
            for b in current:
                c = compose(
                    compose(invert(a), invert(b)), compose(a, b)
                )
                if c not in seen:
                    seen.add(c)
                    comms.append(c)
        dgens, dchain = normal_closure(current, comms, npoints)
        series.append(dchain)
        d_order = dchain.order()
        if d_order == 1 or d_order == prev_order:
            return series
        prev_order = d_order
        current = dgens


def is_solvable(gens, npoints=None):
    return derived_series(gens, npoints)[-1].order() == 1


def perfect_residual(gens, npoints=None):
    """Chain of the last derived term (the group itself when perfect)."""
    return derived_series(gens, npoints)[-1]


def random_subgroup_search(
    ambient_gens, target_order, predicate, seed, budget=DEFAULT_BUDGET, npoints=None
):
    """Seeded product-replacement hunt for a two-generator subgroup.

    Draws element pairs from a product-replacement buffer and returns
    the first pair whose generated subgroup has exactly target_order and
    satisfies the predicate. Identical seeds replay identical searches.
    """
    ambient_gens = [tuple(g) for g in ambient_gens]
    if npoints is None:
        if not ambient_gens:
            raise BadShape("npoints required when there are no generators")
        npoints = len(ambient_gens[0])
    for g in ambient_gens:
        validate_permutation(g, npoints)
    if target_order == 1:
        ident = identity_perm(npoints)
        if predicate is None or predicate((ident, ident)):
            return ident, ident
        raise NotFound("trivial group rejected by predicate")
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
