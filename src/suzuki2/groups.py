"""Table-based engine for finite groups of order at most 4096.

Groups are built by breadth-first closure from generator labels under an
explicit multiplication rule. Element ids are canonical: labels are
sorted and numbered 0..n-1 with the identity forced to id 0, so every
table is reproducible bit-exactly across runs.

Every table is checked on construction for an identity at id 0,
two-sided inverses and generation. Associativity is verified exactly, at
every order, by Light's test over the generating set, which by Light's
theorem is equivalent to checking all triples. Only one kind of table
skips that test: a closure whose rule the caller has certified
associative (closure(..., certified=True), which constructions passes
for the a2, b2 and P(eps) cocycle tables after _check_biadditive). It
reaches the group through the trusted entry FiniteGroup._certified,
whose docstring holds the proof. Every other table, the homocyclic and
quaternion closures and any table passed to FiniteGroup(...) included,
gets Light's test.

Beyond the table a group answers element orders, commutators, its
center, and its special structure: FiniteGroup.special decides in one
pass over the table whether G is special and, computed once, gives the
GF(2) coordinates of Z(G) and of G/Z that the automorphism layer reads.
No subgroup objects are built.
"""

from math import gcd, lcm
from operator import itemgetter

from .errors import GroupTooLarge, NotAGroup

ORDER_CAP = 4096


class FiniteGroup:
    """Immutable multiplication-table group; ids are 0..n-1, identity 0."""

    __slots__ = ("mul", "inv", "gens", "labels", "n", "meta", "_orders", "_special")

    def __init__(self, mul, gens, labels=None, meta=None):
        self._store(mul, gens, labels, meta)
        self._check_table()

    def _store(self, mul, gens, labels, meta):
        self.mul = tuple(map(tuple, mul))
        self.n = len(self.mul)
        self.gens = tuple(gens)
        if not all(0 <= g < self.n for g in self.gens):
            raise NotAGroup(f"generator ids must lie in 0..{self.n - 1}")
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise NotAGroup("label count mismatch")
        self.meta = dict(meta) if meta else {}
        self._orders = None
        self._special = False  # unbuilt; special() fills it once, as mul and gens never change

    @classmethod
    def _certified(cls, mul, gens, labels=None, meta=None):
        """Build from a closure table of a certified rule, without Light's test.

        The only way to skip the associativity check; groups.closure calls
        it when its caller passes certified=True, and only
        constructions._cocycle_group does, for rules
        (a, b)(c, d) = (a+c, b+d+f(a, c)) whose f _check_biadditive has
        proved biadditive on all pairs. Such a rule is associative with
        identity (0, 0): both sides of the 2-cocycle identity
        f(a, c) + f(a+c, e) = f(c, e) + f(a, c+e) expand to
        f(a, c) + f(a, e) + f(c, e), and f(0, c) = f(a, 0) = 0. Then, by
        closure's induction on the depth of x in its tree, every composed
        row(x) is the rule's row of x: every product x*y lies in the
        label set, which the rule therefore keeps closed, and the table is
        the rule's own multiplication on it. A restriction of an
        associative operation to a closed subset is associative, so
        Light's test could only confirm it. The identity, two-sided
        inverse and generation checks still run.
        """
        self = object.__new__(cls)
        self._store(mul, gens, labels, meta)
        self._check_table(associative=True)
        return self

    def _check_table(self, associative=False):
        """Identity, two-sided inverses, associativity and generation.

        Associativity is Light's test: for each generator g and every a,
        the row of a*g must equal row(a) composed with row(g), that is
        (a*g)*b == a*(g*b) for all b, one itemgetter call per row. The
        elements g that pass form a closed set (if g and h pass, then
        (a*gh)*b = ((a*g)*h)*b = (a*g)*(h*b) = a*(g*(h*b)) = a*((g*h)*b)),
        so once the generators pass and generate, every triple is
        associative: the test is exact at every order. Only _certified
        passes associative=True, which skips it; its docstring has the
        proof that stands in.
        """
        n, mul = self.n, self.mul
        if n == 0:
            raise NotAGroup("empty table")
        if any(len(row) != n for row in mul):
            raise NotAGroup("table not square")
        if mul[0] != tuple(range(n)) or [row[0] for row in mul] != list(range(n)):
            raise NotAGroup("id 0 is not an identity")
        inv = []
        for i, row in enumerate(mul):
            try:
                j = row.index(0)
            except ValueError:
                j = None
            if j is None or mul[j][i] != 0:
                raise NotAGroup(f"element {i} has no two-sided inverse")
            inv.append(j)
        self.inv = tuple(inv)
        if not associative:
            for g in self.gens:
                left = itemgetter(*mul[g])
                for row_a in mul:
                    if left(row_a) != mul[row_a[g]]:
                        raise NotAGroup(f"associativity fails through generator {g}")
        # the orbit of 0 under right multiplication by the generators, in
        # the list-as-queue form of permgrp's walk, which this layer sits below
        seen = bytearray(n)
        seen[0] = 1
        reached = [0]
        for x in reached:
            row = mul[x]
            for g in self.gens:
                y = row[g]
                if not seen[y]:
                    seen[y] = 1
                    reached.append(y)
        if len(reached) != n:
            raise NotAGroup("generators do not generate")

    @property
    def order(self):
        return self.n

    def __repr__(self):
        return f"FiniteGroup(order={self.n})"

    def element_order(self, x):
        if self._orders is None:
            self._compute_orders()
        return self._orders[x]

    def _compute_orders(self):
        mul = self.mul
        orders = [0] * self.n
        orders[0] = 1
        for x in range(1, self.n):
            if orders[x]:
                continue
            # walk the cyclic group of x once, filling every power
            path = [x]
            y = mul[x][x]
            while y != 0:
                path.append(y)
                y = mul[y][x]
            o = len(path) + 1
            for k, z in enumerate(path, start=1):
                if not orders[z]:
                    orders[z] = o // gcd(o, k)
        self._orders = orders

    def order_profile(self):
        """Counts of elements by order; values sum to |G|."""
        if self._orders is None:
            self._compute_orders()
        prof = {}
        for o in self._orders:
            prof[o] = prof.get(o, 0) + 1
        return prof

    def exponent(self):
        return lcm(*self.order_profile().keys())

    def involution_count(self):
        return self.order_profile().get(2, 0)

    def commutator(self, x, y):
        mul, inv = self.mul, self.inv
        return mul[mul[inv[x]][inv[y]]][mul[x][y]]

    def center(self):
        """The ids of Z(G), sorted."""
        mul = self.mul
        return tuple(
            x for x in range(self.n) if all(mul[x][g] == mul[g][x] for g in self.gens)
        )

    def special(self):
        """The Special structure of G, or None; built once, on first use.

        Special means a nonabelian 2-group with Z(G) = G' = Phi(G)
        elementary abelian. Three checks on the table decide it: |G| > 1,
        every square is central, and the commutators [g_i, g_j] of the
        generator pairs i < j generate all of Z(G).

        - With every square central, G/Z is elementary abelian, and
          G' <= <G^2> <= Z by [x, y] = x^-2 (x y^-1)^2 y^2.
        - So G has class at most 2, the commutator map is bilinear
          ([xy, z] = [x, z][y, z]), and its values have order at most 2
          ([x, y]^2 = [x^2, y] = 1). Hence G' = <[g_i, g_j] : i < j> is
          elementary abelian, since [g_j, g_i] = [g_i, g_j] and
          [g_i, g_i] = 1, and the doubling below is GF(2)-linear.
        - G' = Z then forces Phi(G) = <G^2> = Z, |G| = |G/Z| |Z| a power
          of 2, and G nonabelian: an abelian G would have Z = G = G' = 1,
          which |G| > 1 excludes.

        Conversely a special group passes: its squares lie in Phi(G) = Z,
        so G' = Z is generated by the [g_i, g_j] as above.

        G' is built by doubling a span: the members reached so far form a
        subgroup of order 2^k numbered 0 .. 2^k - 1, and the first
        commutator c outside it adds w*c with coordinate coord[w] | 2^k
        for every reached w. So c becomes basis vector k. As G' <= Z, the
        two are equal exactly when their orders are.

        V = G/Z gets coordinates when 2^len(gens) * |Z| = |G|: then the
        generators, which span V, are a basis, and the coordinate map c
        has c(x g_i) = c(x) ^ (1 << i). A breadth-first walk from id 0
        along the generators reaches all of G and sets vcoord[x g_i] =
        vcoord[x] ^ (1 << i) at the first visit, which is c(x g_i) by
        induction; lift[v] is the first element reached in coset v, so
        lift[1 << i] is gens[i]. No label or meta tag is read.
        """
        if self._special is False:
            self._special = self._special_structure()
        return self._special

    def _special_structure(self):
        """What special() returns, computed; see its docstring."""
        if self.n == 1:
            return None
        mul, gens = self.mul, self.gens
        central = set(self.center())
        if any(mul[x][x] not in central for x in range(self.n)):
            return None
        coord = {0: 0}
        for i, g in enumerate(gens):
            for h in gens[i + 1 :]:
                c = self.commutator(g, h)
                if c not in coord:
                    coord.update({mul[w][c]: k | len(coord) for w, k in list(coord.items())})
        if len(coord) != len(central):
            return None
        if (1 << len(gens)) * len(coord) != self.n:
            return Special(coord)
        vcoord = [0] + [None] * (self.n - 1)
        walk = [0]
        for x in walk:
            row, v = mul[x], vcoord[x]
            for i, g in enumerate(gens):
                y = row[g]
                if vcoord[y] is None:
                    vcoord[y] = v ^ (1 << i)
                    walk.append(y)
        lift = [0] * (1 << len(gens))
        for x in reversed(walk):
            lift[vcoord[x]] = x
        return Special(coord, vcoord, lift)

    def is_special_2group(self):
        """Whether G is special; see special."""
        return self.special() is not None


class Special:
    """The V and Z coordinates of a special 2-group; see FiniteGroup.special.

    coord maps each member of Z = Z(G) to its GF(2) coordinate, members
    lists Z in coordinate order, vcoord[x] is the V coordinate of element
    x, and lift[v] is an element id in the central coset of V point v.
    dim_z and dim_v are the dimensions of Z and V = G/Z. The V fields are
    None when the generators are not a basis of V.
    """

    __slots__ = ("coord", "members", "dim_z", "vcoord", "lift", "dim_v")

    def __init__(self, coord, vcoord=None, lift=None):
        self.coord = coord
        self.members = sorted(coord, key=coord.__getitem__)
        self.dim_z = len(coord).bit_length() - 1
        self.vcoord = vcoord
        self.lift = lift
        self.dim_v = None if lift is None else len(lift).bit_length() - 1

    def points(self, perms):
        """The V points and the Z points of each permutation of element ids.

        An automorphism keeps Z = Z(G), so it permutes the central cosets:
        it sends V point v to the coordinate of the image of lift[v], and
        Z point c to the coordinate of the image of members[c]. Both are
        the point permutations of the induced GF(2)-linear maps.
        """
        vcoord, coord = self.vcoord, self.coord
        v_points = [tuple(vcoord[p[x]] for x in self.lift) for p in perms]
        z_points = [tuple(coord[p[z]] for z in self.members) for p in perms]
        return v_points, z_points


def closure(seeds, mul_rule, identity, cap=ORDER_CAP, meta=None, certified=False):
    """Generate a FiniteGroup from generator labels under a product rule.

    Ids are assigned by sorting the closed label set, then moving the
    identity to the front. Only the generator rows come from the rule;
    every other row is composed along the breadth-first tree: if x*s was
    first reached from x by the generator s, then (x*s)*y = x*(s*y), so
    row(x*s) = row(x)[row(s)[y]] for every y, one itemgetter call.

    Precondition: mul_rule is associative on the closed set and identity
    is a left identity of it. Then the composed table is the rule's table,
    by induction on the depth of x in the tree: row(identity) is the rule's
    row, and if row(x) is, then row(x*s)[y] = x*(s*y) = (x*s)*y. Callers
    argue the precondition (see constructions). Independently, every
    product x*s the search computed is checked against the composed table,
    so a rule that breaks the precondition on a generator edge raises
    NotAGroup.

    By default the table then goes through FiniteGroup, which checks it
    exactly, Light's test included. certified=True says the caller has
    proved the precondition by a check that ran, not by an argument; the
    table then goes through FiniteGroup._certified, which skips Light's
    test and nothing else (its docstring has the proof).
    constructions._cocycle_group passes it after _check_biadditive, and
    nothing else does.
    """
    seen = {identity}
    order = [identity]
    gens = []
    for s in seeds:
        if s not in seen:
            seen.add(s)
            order.append(s)
        gens.append(s)
    parent = {}
    edges = {}
    for x in order:
        products = edges[x] = [mul_rule(x, s) for s in gens]
        for j, y in enumerate(products):
            if y not in seen:
                if len(seen) >= cap:
                    raise GroupTooLarge(f"closure exceeded cap {cap}")
                seen.add(y)
                order.append(y)
                parent[y] = (x, j)
    labels = sorted(seen)
    if labels[0] != identity:
        labels.remove(identity)
        labels.insert(0, identity)
    index = {lab: i for i, lab in enumerate(labels)}
    gen_ids = [index[s] for s in gens]
    rows = {identity: tuple(range(len(labels)))}
    for s in gens:
        if s not in rows:
            row = tuple([index.get(mul_rule(s, y)) for y in labels])
            if None in row:
                y = labels[row.index(None)]
                raise NotAGroup(f"rule product {s!r} * {y!r} leaves the closed set")
            rows[s] = row
    for y in order:
        if y not in rows:
            x, j = parent[y]
            rows[y] = itemgetter(*rows[gens[j]])(rows[x])
    for x, products in edges.items():
        row = rows[x]
        for g, y in zip(gen_ids, products):
            if row[g] != index[y]:
                raise NotAGroup(f"rule product {x!r} * {labels[g]!r} disagrees with the table")
    return (FiniteGroup._certified if certified else FiniteGroup)(
        [rows[lab] for lab in labels],
        list(dict.fromkeys(gen_ids)),
        labels=tuple(labels),
        meta=meta,
    )
