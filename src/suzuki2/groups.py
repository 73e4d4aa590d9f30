"""Table-based engine for finite groups of order at most 4096.

Groups are built by breadth-first closure from generator labels under an
explicit multiplication rule. Element ids are canonical: labels are
sorted and numbered 0..n-1 with the identity forced to id 0, so every
table is reproducible bit-exactly across runs.

Associativity is verified exactly on construction, at every order, by
Light's test over the generating set, which by Light's theorem is
equivalent to checking all triples.
"""

from math import gcd, lcm
from operator import itemgetter

from .errors import GroupTooLarge, NotAGroup, NotNormal, Unsupported

ORDER_CAP = 4096


class Subgroup:
    """Sorted member ids of a FiniteGroup, with a normality flag."""

    __slots__ = ("group", "members", "is_normal", "_member_set")

    def __init__(self, group, members):
        self.group = group
        self.members = tuple(sorted(set(members)))
        self._member_set = frozenset(self.members)
        if 0 not in self._member_set:
            raise NotAGroup("subgroup must contain the identity")
        mul, inv = group.mul, group.inv
        for x in self.members:
            if inv[x] not in self._member_set:
                raise NotAGroup("subgroup not closed under inverse")
            row = mul[x]
            for y in self.members:
                if row[y] not in self._member_set:
                    raise NotAGroup("subgroup not closed under multiplication")
        self.is_normal = all(
            mul[inv[g]][mul[x][g]] in self._member_set
            for g in group.gens
            for x in self.members
        )

    @property
    def order(self):
        return len(self.members)

    def __contains__(self, x):
        return x in self._member_set

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.group is other.group
            and self.members == other.members
        )

    def __hash__(self):
        return hash((id(self.group), self.members))

    def __repr__(self):
        return f"Subgroup(order={self.order}, normal={self.is_normal})"


class FiniteGroup:
    """Immutable multiplication-table group; ids are 0..n-1, identity 0."""

    __slots__ = ("mul", "inv", "gens", "labels", "n", "meta", "_orders")

    def __init__(self, mul, gens, labels=None, meta=None):
        self.mul = tuple(map(tuple, mul))
        self.n = len(self.mul)
        self.gens = tuple(gens)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != self.n:
            raise NotAGroup("label count mismatch")
        self.meta = dict(meta) if meta else {}
        self._orders = None
        self._check_table()

    def _check_table(self):
        """Identity, two-sided inverses, associativity and generation.

        Associativity is Light's test: for each generator g and every a,
        the row of a*g must equal row(a) composed with row(g), that is
        (a*g)*b == a*(g*b) for all b, one itemgetter call per row. The
        elements g that pass form a closed set (if g and h pass, then
        (a*gh)*b = ((a*g)*h)*b = (a*g)*(h*b) = a*(g*(h*b)) = a*((g*h)*b)),
        so once the generators pass and generate, every triple is
        associative: the test is exact at every order.
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
        if n > 1:
            for g in self.gens if self.gens else range(n):
                left = itemgetter(*mul[g])
                for row_a in mul:
                    if left(row_a) != mul[row_a[g]]:
                        raise NotAGroup(f"associativity fails through generator {g}")
        seen = set()
        frontier = [0]
        seen.add(0)
        while frontier:
            nxt = []
            for x in frontier:
                for g in self.gens:
                    y = mul[x][g]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        if len(seen) != n:
            raise NotAGroup("generators do not generate")

    @property
    def order(self):
        return self.n

    def label_of(self, i):
        return self.labels[i] if self.labels is not None else i

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

    def subgroup_generated(self, seeds):
        """Closure of the seeds; inverses come for free in a finite group."""
        mul = self.mul
        seeds = sorted(set(seeds) | {0})
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            nxt = []
            for x in frontier:
                row = mul[x]
                for s in seeds:
                    y = row[s]
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        return Subgroup(self, seen)

    def normal_closure(self, seeds):
        """Smallest normal subgroup containing the seeds."""
        mul, inv, gens = self.mul, self.inv, self.gens
        pool = set(seeds)
        while True:
            extra = set()
            for x in pool:
                for g in gens:
                    y = mul[mul[inv[g]][x]][g]
                    if y not in pool:
                        extra.add(y)
            if not extra:
                break
            pool |= extra
        return self.subgroup_generated(pool)

    def center(self):
        mul = self.mul
        members = [
            x
            for x in range(self.n)
            if all(mul[x][g] == mul[g][x] for g in self.gens)
        ]
        return Subgroup(self, members)

    def derived_subgroup(self):
        """Normal closure of the commutators of the generators."""
        comms = {
            self.commutator(g, h) for g in self.gens for h in self.gens
        }
        return self.normal_closure(comms)

    def frattini(self):
        """For a 2-group: the subgroup generated by squares and commutators."""
        if self.n & (self.n - 1):
            raise Unsupported("frattini computed only for 2-groups")
        mul = self.mul
        seeds = {mul[x][x] for x in range(self.n)}
        seeds |= {self.commutator(g, h) for g in self.gens for h in self.gens}
        return self.normal_closure(seeds)

    def is_abelian(self):
        mul = self.mul
        return all(mul[g][h] == mul[h][g] for g in self.gens for h in self.gens)

    def is_elementary_abelian_subgroup(self, sub):
        mul = self.mul
        return all(mul[x][x] == 0 for x in sub.members) and all(
            mul[x][y] == mul[y][x] for x in sub.members for y in sub.members
        )

    def is_special_2group(self):
        """Nonabelian with center = derived = Frattini, center elementary abelian."""
        if self.n & (self.n - 1):
            return False
        if self.is_abelian():
            return False
        z = self.center()
        if not self.is_elementary_abelian_subgroup(z):
            return False
        return z == self.derived_subgroup() and z == self.frattini()

    def squares_constant_on_central_cosets(self):
        """Whether x -> x^2 depends only on the central coset of x."""
        if not (self.is_special_2group() and self.exponent() == 4):
            raise Unsupported("defined for special 2-groups of exponent 4")
        mul = self.mul
        z = self.center()
        seen_cosets = {}
        for x in range(self.n):
            rep = min(mul[x][c] for c in z.members)
            sq = mul[x][x]
            if seen_cosets.setdefault(rep, sq) != sq:
                return False
        return True

    def quotient(self, sub):
        """Coset group with minimal-id representatives."""
        if not sub.is_normal:
            raise NotNormal("quotient by a non-normal subgroup")
        mul = self.mul
        rep = [-1] * self.n
        for x in range(self.n):
            if rep[x] >= 0:
                continue
            coset = sorted(mul[x][h] for h in sub.members)
            r = coset[0]
            for y in coset:
                rep[y] = r
        reps = sorted(set(rep))
        index = {r: i for i, r in enumerate(reps)}
        table = [
            [index[rep[mul[a][b]]] for b in reps]
            for a in reps
        ]
        gen_ids = []
        for g in self.gens:
            i = index[rep[g]]
            if i != 0 and i not in gen_ids:
                gen_ids.append(i)
        if not gen_ids:
            gen_ids = [0]
        return FiniteGroup(table, gen_ids, labels=tuple(reps))

    def describe(self):
        """JSON-ready structural summary."""
        prof = self.order_profile()
        return {
            "order": self.n,
            "order_profile": {str(k): prof[k] for k in sorted(prof)},
            "center_order": self.center().order,
            "generators": [_label_json(self.label_of(g)) for g in self.gens],
        }


def _label_json(label):
    if isinstance(label, tuple):
        return [_label_json(x) for x in label]
    return label


def closure(seeds, mul_rule, identity, cap=ORDER_CAP, meta=None):
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
    certify the precondition (see constructions). Independently, every
    product x*s the search computed is checked against the composed table,
    and FiniteGroup checks the table itself exactly, so a rule that breaks
    the precondition on a generator edge raises NotAGroup.
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
    return FiniteGroup(
        [rows[lab] for lab in labels],
        list(dict.fromkeys(gen_ids)),
        labels=tuple(labels),
        meta=meta,
    )
