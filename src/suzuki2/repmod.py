"""Module engine: generator matrices acting on GF(2^f)^d by row vectors.

A GModule stores one invertible matrix per abstract generator symbol and
nothing about the group behind the symbols. Constructions (twists, duals,
scalar restriction, tensor and exterior squares, direct sums) act
generatorwise; structure questions (spinning, submodule lattices, Hom
spaces, irreducibility, subfield writability) reduce to linear algebra.

Exhaustive answers are bounded: point enumeration stops at 2^16 vectors and
Hom-space search at 2^20 combinations. Past a bound the verdict degrades to
Unsupported or UNKNOWN, never to a guess.
"""

import itertools
import random

from .errors import (
    BadFormat,
    BadShape,
    BadSubfield,
    FieldMismatch,
    NotInvariant,
    SingularMatrix,
    Undecided,
    Unsupported,
)
from .linalg import GF2, Matrix, Subspace, echelon, read_matrix, skip_comments, unpack
from .permgrp import _trusted_orbits

_POINT_BITS = 16
_ENUM_BOUND = 1 << 20
# random spins and Hom-space combinations tried past the exhaustive bounds,
# all drawn from one fixed seed so that every verdict is reproducible
_IRREDUCIBLE_TRIALS = 64
_ISOMORPHISM_TRIALS = 256
_SEED = 0
_LATTICE_CAP = 4096


class _UnknownVerdict:
    """Inconclusive search outcome; refuses to act as a boolean."""

    __slots__ = ()

    def __repr__(self):
        return "UNKNOWN"

    def __bool__(self):
        raise Undecided("inconclusive verdict; compare with 'is UNKNOWN'")


UNKNOWN = _UnknownVerdict()


class GModule:
    """Invertible matrices over one field, keyed by generator symbol."""

    __slots__ = ("ctx", "dim", "action", "symbols", "_hash")

    def __init__(self, ctx, dim, action):
        self.ctx = ctx
        self.dim = dim
        self.symbols = tuple(sorted(action))
        checked = {}
        for sym in self.symbols:
            mat = action[sym]
            if mat.ctx != ctx:
                raise FieldMismatch(f"generator {sym!r} lives over {mat.ctx}")
            if mat.shape != (dim, dim):
                raise BadShape(
                    f"generator {sym!r} has shape {mat.shape}, expected ({dim}, {dim})"
                )
            if not mat.is_invertible():
                raise SingularMatrix(f"generator {sym!r} is not invertible")
            checked[sym] = mat
        self.action = checked
        self._hash = None

    @classmethod
    def from_matrices(cls, mats, symbols=None):
        mats = list(mats)
        if not mats:
            raise BadShape("need at least one generator matrix")
        if symbols is None:
            symbols = [f"g{i}" for i in range(len(mats))]
        if len(symbols) != len(mats) or len(set(symbols)) != len(mats):
            raise BadShape("symbols must be distinct, one per matrix")
        return cls(mats[0].ctx, mats[0].nrows, dict(zip(symbols, mats)))

    def matrices(self):
        return tuple(self.action[s] for s in self.symbols)

    def __eq__(self, other):
        return (
            isinstance(other, GModule)
            and self.ctx == other.ctx
            and self.dim == other.dim
            and self.symbols == other.symbols
            and self.matrices() == other.matrices()
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.dim, self.symbols, self.matrices()))
        return self._hash

    def __repr__(self):
        return (
            f"GModule(dim={self.dim} over GF(2^{self.ctx.n}), "
            f"gens={list(self.symbols)})"
        )


def _same_symbols(m1, m2):
    if m1.ctx != m2.ctx:
        raise FieldMismatch(f"{m1.ctx} vs {m2.ctx}")
    if m1.symbols != m2.symbols:
        raise Unsupported("modules are indexed by different generator symbols")


def twist(module, k):
    """Frobenius^k applied entrywise; over GF(2) this is the identity."""
    ctx = module.ctx
    k %= ctx.n
    return GModule(
        ctx,
        module.dim,
        {
            s: Matrix._of(ctx, [[ctx.frobenius(a, k) for a in row] for row in m.rows])
            for s, m in module.action.items()
        },
    )


def dual(module):
    """Inverse transpose generatorwise, so dual(dual(M)) == M entrywise."""
    return GModule(
        module.ctx,
        module.dim,
        {s: m.inverse().transpose() for s, m in module.action.items()},
    )


def restrict_scalars(module):
    """GF(2)-module on the blowup basis; dim multiplies by the field degree."""
    return GModule(
        GF2,
        module.ctx.n * module.dim,
        {s: m.blowup() for s, m in module.action.items()},
    )


def tensor(m1, m2):
    """Generatorwise Kronecker product; dims multiply."""
    _same_symbols(m1, m2)
    return GModule(
        m1.ctx,
        m1.dim * m2.dim,
        {s: m1.action[s].tensor(m2.action[s]) for s in m1.symbols},
    )


def exterior_square(module):
    """Induced action on the wedge basis; dim C(d, 2)."""
    return GModule(
        module.ctx,
        module.dim * (module.dim - 1) // 2,
        {s: m.exterior_square() for s, m in module.action.items()},
    )


def direct_sum(m1, m2):
    """Block-diagonal action on the concatenated coordinates."""
    _same_symbols(m1, m2)
    d1, d2 = m1.dim, m2.dim
    action = {}
    for s in m1.symbols:
        rows = [list(r) + [0] * d2 for r in m1.action[s].rows]
        rows += [[0] * d1 + list(r) for r in m2.action[s].rows]
        action[s] = Matrix._of(m1.ctx, rows)
    return GModule(m1.ctx, d1 + d2, action)


def is_trivial_action(module):
    """True when every generator acts as the identity matrix."""
    ident = Matrix.identity(module.ctx, module.dim)
    return all(m == ident for m in module.matrices())


def spin(module, vectors):
    """Smallest action-invariant subspace containing the vectors.

    Generators are invertible, so closing under forward images is enough;
    the result carries the canonical echelon basis.
    """
    ctx = module.ctx
    space = Subspace(ctx, vectors, module.dim)
    mats = module.matrices()
    queue = list(space.basis)
    while queue:
        v = queue.pop()
        for mat in mats:
            r = space.reduce(mat.apply(v))
            if any(r):
                space = Subspace._of(ctx, space.basis + (r,), module.dim)
                queue.append(r)
    return space


def point_permutations(module):
    """Each generator as a permutation of the packed points of the space.

    A vector's point number is its packed row (linalg.pack), so point 0
    is the zero vector. Refuses spaces beyond 2^16 points.

    Point numbering is GF(2)-linear, so the image of p is the XOR of the
    images of its bits, and the points below 2^(k+1) are those below 2^k,
    then the same points with bit k set. Each map is certified once, by
    its n*d unit images: they lie below 2^(n*d), and a GF(2)-linear map
    of GF(2)^(n*d) to itself is bijective exactly when the images of a
    basis are independent. So every returned tuple is a permutation of
    range(2^(n*d)) and never needs validating again; a generator that
    fails the certificate raises SingularMatrix.
    """
    n, d = module.ctx.n, module.dim
    bits = n * d
    if bits > _POINT_BITS:
        raise Unsupported(f"point space 2^{bits} exceeds 2^{_POINT_BITS}")
    perms = []
    for sym in module.symbols:
        units = module.action[sym].blowup_masks()
        if len(echelon(units, bits)) < bits:
            raise SingularMatrix(f"generator {sym!r} does not permute the points")
        img = [0]
        for b in units:
            img += [x ^ b for x in img]
        perms.append(tuple(img))
    return perms


def point_orbits(module, starts=None):
    """The orbits of point_permutations(module) through starts (default:
    every point), each in BFS order; a start already reached is skipped.

    point_permutations certifies its maps as bijections, so they are
    walked without validating them again.
    """
    npoints = 1 << (module.ctx.n * module.dim)
    return _trusted_orbits(point_permutations(module), npoints, starts)


def _point_span(perms, scalar, p):
    """A GF(2) basis of the span of p closed under perms and under
    multiplication by t (unit images in scalar, empty over GF(2)).

    The basis is keyed by leading bit, so clearing v's leading bit with
    the element that leads there, while one does, leaves 0 exactly when
    v lies in the span. Every element is p or the reduced image of an
    earlier one, and the images of every element under every map are
    reduced into the span, so it is the smallest subspace holding p and
    closed under the maps. At most n*d points enter the basis, so a span
    costs at most n*d*(|gens| + 1) images.
    """
    piv = {p.bit_length() - 1: p}
    basis = [p]
    for w in basis:
        images = [perm[w] for perm in perms]
        if scalar:
            images.append(_apply(scalar, w))
        for v in images:
            while v:
                top = v.bit_length() - 1
                b = piv.get(top)
                if b is None:
                    piv[top] = v
                    basis.append(v)
                    break
                v ^= b
    return basis


def _apply(units, w):
    """The image of point w under the GF(2)-linear map with these unit images."""
    out = 0
    for b in units:
        if w & 1:
            out ^= b
        w >>= 1
    return out


def _cyclic_spans(module):
    """Every cyclic submodule once, as a canonical GF(2) echelon tuple.

    Each nonzero point orbit contributes the span of its first point (the
    orbit of point 0, the zero vector, comes first and is skipped); a
    vector spans the same submodule as every point of its orbit, so no
    cyclic submodule is missed. The point permutations are certified
    bijections, so their orbits are walked unvalidated. point_permutations
    refuses spaces beyond 2^16 points.

    The G-and-t span of p is the cyclic F-submodule. It holds p and lies
    in every submodule that does, since a submodule is closed under the
    generators and under the scalar t. It is closed under t and so under
    F = GF(2)[t], so it is an F-subspace closed under the generators, a
    submodule. Over GF(2) the scalar map is the identity and is left out.

    A canonical tuple identifies its span: in a reduced echelon basis
    every pivot bit is set in exactly one element, and a subspace has
    only one such basis (its element with pivot k is the one member
    whose lowest set bit is k and that has no other pivot bit set). So
    spans are deduplicated as tuples, before any Subspace exists, and
    the GF(2)-subspace of an F-subspace's points determines it.
    """
    ctx = module.ctx
    n, d = ctx.n, module.dim
    perms = point_permutations(module)
    scalar = ()
    if n > 1:
        t_times = Matrix._of(ctx, [[ctx.t if i == j else 0 for j in range(d)] for i in range(d)])
        scalar = t_times.blowup_masks()
    seen = set()
    for orb in _trusted_orbits(perms, 1 << (n * d))[1:]:
        span = echelon(_point_span(perms, scalar, orb[0]), n * d)
        if span not in seen:
            seen.add(span)
            yield span


def is_irreducible(module):
    """True iff every nonzero vector spins to the whole space.

    Exhaustive via point orbits when the space has at most 2^16 points:
    a cyclic span with fewer than n*d GF(2) basis points is a proper
    submodule. Beyond that, seeded random spins can only refute; an
    unrefuted large module raises Unsupported rather than guessing true.
    """
    d = module.dim
    if d == 0:
        return False
    ctx = module.ctx
    if ctx.n * d <= _POINT_BITS:
        return all(len(s) == ctx.n * d for s in _cyclic_spans(module))
    rng = random.Random(_SEED)
    for _ in range(_IRREDUCIBLE_TRIALS):
        v = [rng.randrange(ctx.size) for _ in range(d)]
        if not any(v):
            v[rng.randrange(d)] = 1
        if spin(module, [v]).dim < d:
            return False
    raise Unsupported(
        f"cannot certify irreducibility exhaustively at dim {d} over GF(2^{ctx.n})"
    )


class SubmoduleLattice:
    """All action-invariant subspaces, sorted by (dim, echelon basis)."""

    __slots__ = ("module", "members")

    def __init__(self, module, members):
        self.module = module
        self.members = tuple(sorted(members, key=lambda s: (s.dim, s.basis)))
        for m in self.members:
            _check_invariant(module, m)
        if (
            not self.members
            or self.members[0].dim != 0
            or self.members[-1].dim != module.dim
        ):
            raise NotInvariant("lattice must run from 0 to the full space")

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, space):
        return space in self.members

    def __repr__(self):
        dims = [m.dim for m in self.members]
        return f"SubmoduleLattice({len(dims)} members, dims {dims})"

    def of_dim(self, d):
        return tuple(m for m in self.members if m.dim == d)

    def maximal_proper(self):
        """Members maximal among the proper submodules."""
        full_dim = self.module.dim
        proper = [m for m in self.members if m.dim < full_dim]
        return tuple(
            m
            for m in proper
            if not any(o != m and o.contains_space(m) for o in proper)
        )


def submodule_lattice(module):
    """Every invariant subspace: cyclic spans closed under pairwise sums.

    Cyclic submodules are the spans of point orbits, and every submodule
    is a sum of cyclic ones, so the closure is the complete lattice (in
    particular it is intersection-closed for free). Packing is
    GF(2)-linear, so the points of a sum of F-subspaces are the XOR sums
    of their points: the canonical GF(2) echelon tuple of two members'
    tuples together is their sum. Sums close on those tuples, and each
    member becomes a Subspace once, at the end.
    """
    ctx = module.ctx
    n, d = ctx.n, module.dim
    members = [(), *_cyclic_spans(module)]
    index = set(members)
    i = 0
    while i < len(members):
        for j in range(1, i):
            s = echelon(members[i] + members[j], n * d)
            if s not in index:
                if len(members) >= _LATTICE_CAP:
                    raise Unsupported("submodule lattice has too many members")
                index.add(s)
                members.append(s)
        i += 1
    return SubmoduleLattice(
        module, [Subspace._of(ctx, [unpack(b, d, n) for b in m], d) for m in members]
    )


def _check_invariant(module, w):
    if w.ctx != module.ctx:
        raise FieldMismatch(f"{w.ctx} vs {module.ctx}")
    if w.ambient != module.dim:
        raise BadShape(f"subspace of GF^{w.ambient} against a dim-{module.dim} module")
    mats = module.matrices()
    for b in w.basis:
        for mat in mats:
            if not w.contains(mat.apply(b)):
                raise NotInvariant("subspace is not closed under the action")


def submodule_module(module, w):
    """Action induced on an invariant subspace, in its echelon basis.

    The coordinates of a vector v of w in w.basis are its entries at
    w.pivots, with no solve: the basis is reduced echelon, so basis row k
    has 1 at pivots[k] and 0 at every other pivot, and v = sum_k c_k
    basis_k has entry c_k at pivots[k]. _check_invariant has proved
    that each image mat.apply(b) lies in w.
    """
    _check_invariant(module, w)
    ctx = module.ctx
    action = {}
    for s in module.symbols:
        images = map(module.action[s].apply, w.basis)
        action[s] = Matrix._of(ctx, [[v[p] for p in w.pivots] for v in images])
    return GModule(ctx, w.dim, action)


def quotient_module(module, w):
    """Action induced on the coordinates complementary to the pivots of w."""
    _check_invariant(module, w)
    ctx = module.ctx
    pivots = set(w.pivots)
    free = [c for c in range(module.dim) if c not in pivots]
    action = {}
    for s, mat in module.action.items():
        # the image of the unit vector e_c is row c of the matrix
        reduced = [w.reduce(mat.rows[c]) for c in free]
        action[s] = Matrix._of(ctx, [[r[k] for k in free] for r in reduced])
    return GModule(ctx, len(free), action)


def hom_space(m1, m2):
    """Echelon basis of the intertwiners from m1 to m2.

    Row convention: a map is a dim(m1) x dim(m2) matrix T acting as
    v -> v T, so the constraint per generator g reads rho1(g) T = T rho2(g).
    """
    _same_symbols(m1, m2)
    d1, d2 = m1.dim, m2.dim
    if d1 == 0 or d2 == 0:
        return []
    rows = [[0] * (len(m1.symbols) * d1 * d2) for _ in range(d1 * d2)]
    for g, sym in enumerate(m1.symbols):
        p = m1.action[sym].rows
        q = m2.action[sym].rows
        base = g * d1 * d2
        for a in range(d1):
            for b in range(d2):
                col = base + a * d2 + b
                for i in range(d1):
                    if p[a][i]:
                        rows[i * d2 + b][col] ^= p[a][i]
                for j in range(d2):
                    if q[j][b]:
                        rows[a * d2 + j][col] ^= q[j][b]
    ker = Matrix._of(m1.ctx, rows).kernel()
    return [
        Matrix._of(m1.ctx, [krow[i * d2 : (i + 1) * d2] for i in range(d1)])
        for krow in ker.rows
    ]


def _combine(ctx, homs, coeffs):
    d1, d2 = homs[0].nrows, homs[0].ncols
    out = [[0] * d2 for _ in range(d1)]
    for c, h in zip(coeffs, homs):
        if not c:
            continue
        for i, row in enumerate(h.rows):
            orow = out[i]
            for j, a in enumerate(row):
                if a:
                    orow[j] ^= ctx.mul(c, a)
    return Matrix._of(ctx, out)


def is_isomorphic(m1, m2):
    """Three-valued: True, False, or UNKNOWN. Never a silent false.

    The Hom space is searched exhaustively up to 2^20 combinations, then
    by seeded random trials; an exhausted random search returns UNKNOWN
    unless the dimensions below refute the pair.

    No irreducibility test is needed first. If both modules are
    irreducible and Hom is nonzero, Hom is isomorphic to End(m1), a finite
    division algebra and so a field, of degree k = dim Hom over F = GF(q);
    m1 is a vector space over it, so k <= dim m1 and, within 2^16 points,
    q^k - 1 < q^dim <= 2^16 <= 2^20. The search is then exhaustive, and its
    first nonzero tuple (0, ..., 0, 1) is homs[-1], a nonzero intertwiner
    between irreducibles, hence invertible: the answer is True, as Schur's
    lemma gives it.

    Before giving up, the search compares dimensions. An isomorphism phi
    from m1 to m2 gives F-linear bijections T -> T phi^-1 from Hom(m1, m2)
    onto End(m1) and T -> phi^-1 T onto End(m2), with inverses S -> S phi
    and S -> phi S, since products of intertwiners intertwine. So if dim
    Hom differs from dim End(m1) or dim End(m2), the answer is False. Only
    an exhausted random search computes the End spaces.
    """
    _same_symbols(m1, m2)
    if m1.dim != m2.dim:
        return False
    if m1.dim == 0:
        return True
    homs = hom_space(m1, m2)
    if not homs:
        return False
    ctx = m1.ctx
    k = len(homs)
    if ctx.size**k - 1 <= _ENUM_BOUND:
        for coeffs in itertools.product(range(ctx.size), repeat=k):
            if any(coeffs) and _combine(ctx, homs, coeffs).is_invertible():
                return True
        return False
    rng = random.Random(_SEED)
    for _ in range(_ISOMORPHISM_TRIALS):
        coeffs = [rng.randrange(ctx.size) for _ in range(k)]
        if any(coeffs) and _combine(ctx, homs, coeffs).is_invertible():
            return True
    if len(hom_space(m1, m1)) != k or len(hom_space(m2, m2)) != k:
        return False
    return UNKNOWN


def written_over_subfield(module, m):
    """Galois-twist criterion: does the module descend to GF(2^m)?

    Defined for irreducible modules over GF(2^f) with m dividing f; the
    answer is True exactly when the module is isomorphic to all its
    GF(2^m)-Galois twists. Propagates UNKNOWN from undecided comparisons.
    """
    f = module.ctx.n
    if m < 1 or f % m:
        raise BadSubfield(f"GF(2^{m}) is not a subfield of GF(2^{f})")
    if not is_irreducible(module):
        raise Unsupported("subfield criterion applies to irreducible modules")
    undecided = False
    for i in range(1, f // m):
        r = is_isomorphic(module, twist(module, m * i))
        if r is UNKNOWN:
            undecided = True
        elif r is False:
            return False
    return UNKNOWN if undecided else True


def decompose_lemma22(u):
    """Split the GF(2) exterior square of a restricted module and check it.

    For U of dim d over GF(2^f), the exterior square of the GF(2)
    restriction should decompose as A + sum of B_j: A is the restricted
    exterior square of U, B_j (for 0 < j < f/2) is the restricted
    U (x) twist(U, j), and for even f a half-size term whose double is the
    restricted U (x) twist(U, f/2). Summands are located in the submodule
    lattice by dimension, then confirmed by isomorphism; a mismatch is
    reported, never patched. Each piece of a passing split carries its
    subspace and its submodule_module, None otherwise.
    """
    f = u.ctx.n
    lam = exterior_square(restrict_scalars(u))
    # (name, summand dim, target, doubled): a doubled summand is matched
    # by the direct sum of two copies against its target
    a_target = restrict_scalars(exterior_square(u))
    pieces = [("a", a_target.dim, a_target, False)]
    for j in range(1, f // 2 + 1):
        doubled = 2 * j == f
        target = restrict_scalars(tensor(u, twist(u, j)))
        pieces.append((f"b{j}", target.dim // 2 if doubled else target.dim, target, doubled))

    lattice = submodule_lattice(lam)
    candidates = []
    for _, dim_, target, doubled in pieces:
        found = []
        for w in lattice.of_dim(dim_):
            sub = submodule_module(lam, w)
            if is_isomorphic(direct_sum(sub, sub) if doubled else sub, target) is True:
                found.append((w, sub))
        candidates.append(found)

    chosen = None
    for pick in itertools.product(*candidates):
        if sum(w.dim for w, _ in pick) != lam.dim:
            continue
        acc = pick[0][0]
        for w, _ in pick[1:]:
            acc = acc.sum(w)
        if acc.dim == lam.dim:
            chosen = pick
            break

    picks = chosen if chosen is not None else ((None, None),) * len(pieces)
    return {
        "field_degree": f,
        "module_dim": u.dim,
        "ambient_dim": lam.dim,
        "pieces": [
            {"name": name, "dim": dim_, "candidates": len(found), "space": w, "module": sub}
            for (name, dim_, _, _), found, (w, sub) in zip(pieces, candidates, picks)
        ],
        "summand_dims": [piece[1] for piece in pieces],
        "passed": chosen is not None,
    }


def module_to_text(module):
    """Serialize as one matrix block per generator, in symbol order."""
    return "".join(
        f"gen {s}\n" + module.action[s].to_text() for s in module.symbols
    )


def module_from_text(text):
    """Parse gen blocks back into a GModule."""
    lines = text.splitlines() if isinstance(text, str) else list(text)
    action = {}
    idx = skip_comments(lines, 0)
    while idx < len(lines):
        head = lines[idx].split()
        if len(head) != 2 or head[0] != "gen":
            raise BadFormat(f"expected a gen line, got {lines[idx]!r}")
        sym = head[1]
        if sym in action:
            raise BadFormat(f"duplicate generator {sym!r}")
        action[sym], idx = read_matrix(lines, idx + 1)
        idx = skip_comments(lines, idx)
    if not action:
        raise BadFormat("no generator blocks found")
    first = next(iter(action.values()))
    return GModule(first.ctx, first.nrows, action)
