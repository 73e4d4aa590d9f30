"""Dense linear algebra over GF(2^f) and the multilinear constructions
(tensor product, exterior square, restriction-of-scalars blowup).

Convention: vectors are rows and matrices act on the right, v -> v*A.
The row of index i of a matrix is the image of the i-th basis vector.
Subspaces are canonicalized by reduced row echelon form, so two
subspaces are equal iff their stored bases are identical.

Wedge basis for exterior squares: pairs (i, j) with i < j in
lexicographic order. Restriction of scalars uses the power basis
(1, t, ..., t^(f-1)) of GF(2^f) over GF(2).

Packed vectors: pack(row, f) puts entry j of a row over GF(2^f) at bits
[f*j, f*j + f) of one int, and unpack(mask, width, f) reads it back.
Packing is GF(2)-linear, so XOR adds packed vectors, and a row packed
over GF(2^f) is its restriction of scalars on the power basis. Every
module converts through these two, and row-reduces packed GF(2) vectors
through echelon(masks, bits).

One elimination, _rref_packed, serves every field: it reduces packed
rows, scaling a whole row by t in a few int operations (_scale), and
kernel, solve and inverse pack each row once with the identity block as
its high entries (Matrix._augmented). A GF(2) row is packed and unpacked
in C (bytes.translate with int() and format()), about 4x and 10x faster
than loops over the bits of a 1,000-bit row.

Entries are checked once, where they enter: Matrix(...) and Subspace(...)
check every entry (read_matrix and the catalog builders go through
Matrix), and results computed from matrices or subspaces that are
already valid are built by Matrix._of and Subspace._of, which check
nothing.
"""

from .errors import BadFormat, BadShape, FieldMismatch, NoSolution, SingularMatrix
from .gf2n import FieldContext, poly_to_hex

GF2 = FieldContext(1)
# bytes.translate tables for pack and unpack over GF(2): entry x of a row
# becomes the digit byte of "01"[x], and a digit byte becomes its bit
_DIGITS = b"01" + b"\0" * 254
_BITS = b"\0" * 48 + b"\0\1" + b"\0" * 206


def wedge_pairs(n):
    """Index pairs (i, j), i < j, ordering the wedge basis of Lambda^2."""
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def point_matrix(points, dim):
    """GF(2) matrix of a linear permutation of the 2^dim packed vectors:
    row i is the unpacked image of the unit point 1 << i."""
    return Matrix(GF2, [unpack(points[1 << i], dim) for i in range(dim)])


class Matrix:
    """Immutable dense matrix over a FieldContext; entries are int bitmasks."""

    __slots__ = ("ctx", "rows", "nrows", "ncols", "_hash")

    def __init__(self, ctx, rows):
        self.ctx = ctx
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise BadShape("ragged rows")
            for x in r:
                ctx.check(x)
        self._hash = None

    @classmethod
    def _of(cls, ctx, rows):
        """Trusted constructor: keeps the rows as tuples and checks nothing.

        Only for rows that some method computed from matrices or subspaces
        over ctx. Their entries are elements of GF(2^n) on entry, because
        Matrix(...) checked them (read_matrix and the catalog builders go
        through it), and XOR, mul, inv and frobenius map elements of
        GF(2^n) to elements of GF(2^n), so every computed entry is an
        element too. The computing methods also fix the shape: every row
        gets the same number of entries. Checking again would only repeat
        the validation the inputs passed at the boundary.
        """
        self = object.__new__(cls)
        self.ctx = ctx
        self.rows = tuple(map(tuple, rows))
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        self._hash = None
        return self

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ctx == other.ctx
            and self.rows == other.rows
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx, self.rows))
        return self._hash

    def __repr__(self):
        return f"Matrix({self.nrows}x{self.ncols} over GF(2^{self.ctx.n}))"

    def __mul__(self, other):
        self._same_field(other)
        if self.ncols != other.nrows:
            raise BadShape(f"cannot multiply {self.shape} by {other.shape}")
        mul = self.ctx.mul
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            for c in bt:
                acc = 0
                for a, b in zip(r, c):
                    if a and b:
                        acc ^= mul(a, b)
                row.append(acc)
            out.append(row)
        return Matrix._of(self.ctx, out)

    def _same_field(self, other):
        if self.ctx != other.ctx:
            raise FieldMismatch(f"{self.ctx} vs {other.ctx}")

    def transpose(self):
        return Matrix._of(self.ctx, zip(*self.rows)) if self.rows else self

    def apply(self, vec):
        """Row vector times matrix."""
        if len(vec) != self.nrows:
            raise BadShape("vector length mismatch")
        mul = self.ctx.mul
        if self.ctx.n == 1:
            out = [0] * self.ncols
            for x, row in zip(vec, self.rows):
                if x:
                    out = [o ^ r for o, r in zip(out, row)]
            return tuple(out)
        out = [0] * self.ncols
        for x, row in zip(vec, self.rows):
            if x:
                for j, a in enumerate(row):
                    if a:
                        out[j] ^= mul(x, a)
        return tuple(out)

    def rref(self):
        """Reduced row echelon form: (matrix, pivot column tuple)."""
        rows, pivots = _rref_rows(self.ctx, [list(r) for r in self.rows], self.ncols)
        return Matrix._of(self.ctx, rows), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Canonical basis of the left kernel {v : v*A = 0} as a Matrix."""
        ctx, n, f = self.ctx, self.nrows, self.ctx.n
        red, pivots = self._augmented()
        basis, _ = _rref_packed(ctx, [mask >> f * self.ncols for mask in red[len(pivots) :]], n)
        return Matrix._of(ctx, [unpack(mask, n, f) for mask in basis])

    def solve(self, b):
        """Some v with v*A = b, else NoSolution.

        acc = pack(b) is reduced, in pivot order, by e times each pivot
        row (c A | c), where e is acc's entry in the pivot column, as the
        list path reduces b; each step adds e c to the high entries, so b
        lies in the row space exactly when the low entries end at zero,
        and then the high entries are a v with v*A = b (the list path's v).
        """
        if len(b) != self.ncols:
            raise BadShape("rhs length mismatch")
        ctx, m, f = self.ctx, self.ncols, self.ctx.n
        low = ctx.size - 1
        red, pivots = self._augmented()
        acc = pack(b, f)
        for mask, p in zip(red, pivots):
            e = acc >> f * p & low
            if e:
                acc ^= _scale(ctx, mask, e)
        if acc & ((1 << f * m) - 1):
            raise NoSolution("inconsistent linear system")
        return unpack(acc >> f * m, self.nrows, f)

    def inverse(self):
        if self.nrows != self.ncols:
            raise BadShape("inverse of a non-square matrix")
        n = self.nrows
        red, pivots = self._augmented()
        if len(pivots) < n:
            raise SingularMatrix(f"rank {len(pivots)} < {n}")
        f = self.ctx.n
        return Matrix._of(self.ctx, [unpack(mask >> f * n, n, f) for mask in red])

    def _augmented(self):
        """[A | I] in reduced echelon form, pivots among A's columns.

        Every row is (c A | c) for the coefficient vector c of the rows
        combined into it. Row i is packed once as pack(A_i, f) with entry 1
        at column ncols + i, and _rref_packed only adds field multiples of
        whole packed rows, so c sits in the high entries. The rows past the
        rank have c A = 0 (a nonzero entry below ncols would have been a
        pivot) and their c are a basis of the left kernel; the c of a
        full-rank square A are the rows of its inverse.
        """
        f, m = self.ctx.n, self.ncols
        rows = [pack(r, f) | 1 << f * (m + i) for i, r in enumerate(self.rows)]
        return _rref_packed(self.ctx, rows, m)

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def tensor(self, other):
        """Kronecker product on the basis e_i (x) e_j, lexicographic."""
        self._same_field(other)
        mul = self.ctx.mul
        out = []
        for r1 in self.rows:
            for r2 in other.rows:
                out.append([mul(a, b) if a and b else 0 for a in r1 for b in r2])
        return Matrix._of(self.ctx, out)

    def exterior_square(self):
        """Induced action on the wedge basis {e_i ^ e_j : i < j}.

        In characteristic 2 the expansion of (e_i A) ^ (e_j A) reduces by
        v ^ v = 0 and v ^ w = w ^ v, so the (kl) coefficient is
        A[i][k]A[j][l] + A[i][l]A[j][k].
        """
        if self.nrows != self.ncols:
            raise BadShape("exterior square of a non-square matrix")
        mul = self.ctx.mul
        pairs = wedge_pairs(self.nrows)
        rows = self.rows
        out = []
        for i, j in pairs:
            ri, rj = rows[i], rows[j]
            row = []
            for k, l in pairs:
                row.append(mul(ri[k], rj[l]) ^ mul(ri[l], rj[k]))
            out.append(row)
        return Matrix._of(self.ctx, out)

    def blowup(self):
        """Restriction of scalars to GF(2) on the power basis (1, t, ...).

        Each entry a becomes the f x f GF(2) matrix whose row r holds the
        coordinates of t^r * a, so row f*i + r of the (f*nrows) x (f*ncols)
        result is t^r times row i, packed over GF(2^f), unpacked over GF(2).
        """
        width = self.ctx.n * self.ncols
        return Matrix._of(GF2, [unpack(mask, width) for mask in self.blowup_masks()])

    def blowup_masks(self):
        """The rows of blowup() packed: row k is the image of the unit
        point 1 << k, the element t^(k mod f) in coordinate k // f."""
        f = self.ctx.n
        masks = [pack(row, f) for row in self.rows]
        return [_scale(self.ctx, mask, 1 << r) for mask in masks for r in range(f)]

    def to_text(self):
        """Serialize in the shared matrix text format."""
        f = self.ctx.n
        width = max(1, (self.ncols * f + 3) // 4)
        lines = [
            f"field {f} poly={poly_to_hex(self.ctx.poly)}",
            f"dim {self.nrows} {self.ncols}",
        ]
        lines += [format(pack(row, f), f"0{width}x") for row in self.rows]
        return "\n".join(lines) + "\n"


def skip_comments(lines, idx):
    """First index at or after idx whose line is neither blank nor a # comment."""
    while idx < len(lines) and (not lines[idx].strip() or lines[idx].lstrip().startswith("#")):
        idx += 1
    return idx


def read_matrix(lines, start):
    """Parse one matrix block of a line list from index start, skipping
    comments before it; returns (Matrix, index after the block). Line
    numbers in errors count from start."""
    idx = skip_comments(lines, start)
    try:
        head = lines[idx].split()
        if head[0] != "field":
            raise ValueError
        f = int(head[1])
        poly = int(head[2].split("=", 1)[1], 16)
        dims = lines[idx + 1].split()
        if dims[0] != "dim":
            raise ValueError
        nrows, ncols = int(dims[1]), int(dims[2])
        if nrows < 0 or ncols < 0:
            raise ValueError
    except (ValueError, IndexError) as exc:
        raise BadFormat(f"bad matrix header near line {idx - start + 1}") from exc
    ctx = FieldContext(f, poly)
    rows = []
    idx += 2
    for _ in range(nrows):
        if idx >= len(lines):
            raise BadFormat("truncated matrix data")
        try:
            packed = int(lines[idx].strip(), 16)
        except ValueError as exc:
            raise BadFormat(f"bad row at line {idx - start + 1}") from exc
        if packed < 0 or packed >> (f * ncols):
            raise BadFormat(f"row at line {idx - start + 1} is out of range")
        rows.append(unpack(packed, ncols, f))
        idx += 1
    return Matrix(ctx, rows), idx


def _rref_rows(ctx, rows, width):
    """Reduced row echelon form of list rows; returns (rows, pivot columns)."""
    f = ctx.n
    masks, pivots = _rref_packed(ctx, [pack(r, f) for r in rows], width)
    return [unpack(mask, width, f) for mask in masks], pivots


def pack(row, f=1):
    """The entries of a row over GF(2^f) as one int, entry j at bits
    [f*j, f*j + f).

    For f = 1 the reversed row, each entry mapped to its digit, is the
    binary numeral of the mask, so bytes.translate and int() convert it in
    C; an entry other than 0 or 1 maps to a byte int() rejects.
    """
    if f == 1:
        return int(b"0" + bytes(row[::-1]).translate(_DIGITS), 2)
    out = 0
    for j, a in enumerate(row):
        out |= a << (f * j)
    return out


def unpack(mask, width, f=1):
    """The first width entries of a packed row over GF(2^f), as a tuple.

    For f = 1 they are the binary numeral of mask, reversed, cut to width
    digits and mapped back from digits to bits, all in C.
    """
    if f == 1:
        return tuple(format(mask, f"0{width}b").encode()[::-1][:width].translate(_BITS))
    low = (1 << f) - 1
    return tuple(mask >> (f * j) & low for j in range(width))


def echelon(masks, bits):
    """The reduced echelon basis of the GF(2)-span of packed vectors below
    2^bits, as a tuple: a span has exactly one, so equal tuples are equal
    spans."""
    masks, pivots = _rref_packed(GF2, list(masks), bits)
    return tuple(masks[: len(pivots)])


def _rref_packed(ctx, masks, stop_col):
    """In-place reduced echelon form of rows packed over ctx = GF(2^f),
    pivots among the columns below stop_col (the columns past it are
    carried along); returns (masks, pivot columns).

    A row's entry in column col is nonzero exactly when the row meets that
    column's f-bit block. The pivot row is scaled by the inverse of its
    entry and every other row with entry e loses e times it (_scale), so
    every step is the per-entry step of the list elimination. Over GF(2)
    both scalars are 1: a bare XOR.
    """
    f, inv = ctx.n, ctx.inv
    low = ctx.size - 1
    pivots = []
    rank = 0
    for col in range(stop_col):
        shift = f * col
        block = low << shift
        sel = None
        for i in range(rank, len(masks)):
            if masks[i] & block:
                sel = i
                break
        if sel is None:
            continue
        masks[rank], masks[sel] = masks[sel], masks[rank]
        piv = masks[rank]
        if f == 1:
            for i in range(len(masks)):
                if i != rank and masks[i] & block:
                    masks[i] ^= piv
        else:
            piv = masks[rank] = _scale(ctx, piv, inv(piv >> shift & low))
            for i in range(len(masks)):
                if i != rank and masks[i] & block:
                    masks[i] ^= _scale(ctx, piv, masks[i] >> shift & low)
        pivots.append(col)
        rank += 1
    return masks, pivots


def _scale(ctx, mask, c):
    """c * mask for a row packed over ctx = GF(2^f): the XOR of t^b * mask
    over the set bits b of c.

    Each t^b * mask is t times the previous one, for every entry at once.
    In s = mask << 1 the top bit of entry j lands alone at bit f*(j+1)
    (entry j+1's bit 0 moves past it), so ovf = s & high, high holding
    those bits, marks the entries whose 2a has degree f. As x^f = fold
    mod poly, with fold = poly ^ 1 << f below 2^f, (ovf >> f) * fold puts
    fold into exactly those blocks without carries, and
    s ^ ovf ^ (ovf >> f) * fold is t*a mod poly in every block.
    """
    if c == 1:
        return mask
    f = ctx.n
    blocks = -(-mask.bit_length() // f)
    high = ((1 << f * blocks) - 1) // (ctx.size - 1) << f
    fold = ctx.poly ^ ctx.size
    out = 0
    while True:
        if c & 1:
            out ^= mask
        c >>= 1
        if not c:
            return out
        s = mask << 1
        ovf = s & high
        mask = s ^ ovf ^ (ovf >> f) * fold


class Subspace:
    """Row space in canonical reduced echelon form."""

    __slots__ = ("ctx", "basis", "pivots", "ambient")

    def __init__(self, ctx, vectors, ambient):
        rows = [tuple(v) for v in vectors]
        for r in rows:
            if len(r) != ambient:
                raise BadShape("vector length mismatch")
            for x in r:
                ctx.check(x)
        self._echelon(ctx, rows, ambient)

    @classmethod
    def _of(cls, ctx, vectors, ambient):
        """Trusted constructor: reduces the vectors and checks nothing.

        Only for vectors that some method computed from subspaces, matrices
        or points over ctx: sums and intersections of subspaces, spins,
        and points unpacked coordinate by coordinate. Their entries are
        elements of GF(2^n) for the reason Matrix._of gives (XOR and mul
        map elements to elements; an unpacked coordinate is masked to n
        bits), and each has ambient entries, because every computing
        method builds its vectors at the ambient length.
        """
        self = object.__new__(cls)
        self._echelon(ctx, vectors, ambient)
        return self

    def _echelon(self, ctx, vectors, ambient):
        self.ctx = ctx
        self.ambient = ambient
        red, pivots = _rref_rows(ctx, [r for r in vectors if any(r)], ambient)
        self.basis = tuple(tuple(r) for r in red[: len(pivots)])
        self.pivots = tuple(pivots)

    @property
    def dim(self):
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient == other.ambient
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ctx, self.ambient, self.basis))

    def __repr__(self):
        return f"Subspace(dim={self.dim} of {self.ambient} over GF(2^{self.ctx.n}))"

    def reduce(self, vec):
        """Remainder of vec after reduction against the echelon basis."""
        mul = self.ctx.mul
        v = list(vec)
        for row, p in zip(self.basis, self.pivots):
            c = v[p]
            if c:
                for j, b in enumerate(row):
                    if b:
                        v[j] ^= mul(c, b)
        return tuple(v)

    def contains(self, vec):
        return not any(self.reduce(vec))

    def contains_space(self, other):
        return all(self.contains(v) for v in other.basis)

    def _same_space(self, other):
        if self.ctx != other.ctx:
            raise FieldMismatch(f"{self.ctx} vs {other.ctx}")
        if self.ambient != other.ambient:
            raise BadShape("vector length mismatch")

    def sum(self, other):
        self._same_space(other)
        return Subspace._of(self.ctx, self.basis + other.basis, self.ambient)

    def intersection(self, other):
        """Zassenhaus-style: kernel rows of the stacked basis split the sum."""
        self._same_space(other)
        stacked = list(self.basis) + list(other.basis)
        if not stacked:
            return Subspace._of(self.ctx, [], self.ambient)
        ker = Matrix._of(self.ctx, stacked).kernel()
        mul = self.ctx.mul
        vecs = []
        k = len(self.basis)
        for krow in ker.rows:
            v = [0] * self.ambient
            for i in range(k):
                c = krow[i]
                if c:
                    for j, b in enumerate(self.basis[i]):
                        if b:
                            v[j] ^= mul(c, b)
            vecs.append(v)
        return Subspace._of(self.ctx, vecs, self.ambient)
