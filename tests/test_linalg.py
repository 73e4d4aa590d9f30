"""Tests for dense matrices, elimination, and the multilinear functors."""

import random

import pytest

from suzuki2.errors import BadFormat, BadShape, FieldMismatch, NoSolution, SingularMatrix
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix, Subspace, read_matrix, wedge_pairs

F4 = FieldContext(2)
F8 = FieldContext(3)


def rand_matrix(ctx, r, c, rng):
    return Matrix(ctx, [[rng.randrange(ctx.size) for _ in range(c)] for _ in range(r)])


def rand_invertible(ctx, n, rng):
    while True:
        m = rand_matrix(ctx, n, n, rng)
        if m.is_invertible():
            return m


def test_identity_and_shapes():
    I = Matrix.identity(F4, 3)
    assert I.shape == (3, 3)
    m = rand_matrix(F4, 3, 2, random.Random(0))
    assert I * m == m
    with pytest.raises(BadShape):
        m * m
    with pytest.raises(FieldMismatch):
        Matrix.identity(F8, 2) * Matrix.identity(F4, 2)


def test_mul_against_direct_sum():
    rng = random.Random(1)
    for _ in range(20):
        a = rand_matrix(F8, 3, 4, rng)
        b = rand_matrix(F8, 4, 2, rng)
        prod = a * b
        for i in range(3):
            for j in range(2):
                acc = 0
                for k in range(4):
                    acc ^= F8.mul(a.rows[i][k], b.rows[k][j])
                assert prod.rows[i][j] == acc


def test_apply_is_row_action():
    rng = random.Random(2)
    a = rand_matrix(F4, 3, 3, rng)
    b = rand_matrix(F4, 3, 3, rng)
    v = tuple(rng.randrange(4) for _ in range(3))
    # v*(AB) == (v*A)*B under the row convention
    assert (a * b).apply(v) == b.apply(a.apply(v))


def test_inverse_self_inverse_example():
    a = Matrix(GF2, [[1, 1], [0, 1]])
    assert a.inverse() == a
    assert a * a == Matrix.identity(GF2, 2)


def test_inverse_random_roundtrip():
    rng = random.Random(4)
    for ctx in (GF2, F4, F8):
        for n in (1, 2, 3, 4):
            m = rand_invertible(ctx, n, rng)
            assert m * m.inverse() == Matrix.identity(ctx, n)
            assert m.inverse() * m == Matrix.identity(ctx, n)


def test_singular_matrix_raises():
    m = Matrix(F4, [[1, 2], [1, 2]])
    with pytest.raises(SingularMatrix):
        m.inverse()
    assert not m.is_invertible()


def test_rref_canonical_and_idempotent():
    rng = random.Random(5)
    for ctx in (GF2, F8):
        for _ in range(10):
            m = rand_matrix(ctx, 4, 5, rng)
            r, pivots = m.rref()
            r2, pivots2 = r.rref()
            assert r == r2 and pivots == pivots2
            # pivot columns carry a single 1
            for k, p in enumerate(pivots):
                col = [row[p] for row in r.rows]
                assert col[k] == 1 and all(x == 0 for i, x in enumerate(col) if i != k)


def test_rref_row_space_preserved():
    rng = random.Random(6)
    m = rand_matrix(F4, 4, 4, rng)
    r, pivots = m.rref()
    s1 = Subspace(F4, m.rows, 4)
    s2 = Subspace(F4, r.rows[: len(pivots)], 4)
    assert s1 == s2


def test_rank_of_identity_and_zero():
    assert Matrix.identity(F8, 5).rank() == 5
    assert Matrix(F8, [[0] * 4 for _ in range(3)]).rank() == 0


def test_kernel_annihilates_and_has_right_dim():
    rng = random.Random(7)
    for ctx in (GF2, F4):
        for _ in range(10):
            m = rand_matrix(ctx, 4, 3, rng)
            ker = m.kernel()
            assert ker.nrows == 4 - m.rank()
            zero = tuple([0] * m.ncols)
            for v in ker.rows:
                assert m.apply(v) == zero


def test_solve_consistent_and_inconsistent():
    rng = random.Random(8)
    m = rand_matrix(F8, 3, 4, rng)
    v = tuple(rng.randrange(8) for _ in range(3))
    b = m.apply(v)
    x = m.solve(b)
    assert m.apply(x) == b
    # rank 1 system with an rhs outside the row space
    m2 = Matrix(F4, [[1, 0], [1, 0]])
    with pytest.raises(NoSolution):
        m2.solve((0, 1))


def test_tensor_diagonal_example():
    # diag(t,1) (x) diag(1,t) = diag(t, t^2, 1, t) over GF(4)
    t = F4.t
    a = Matrix(F4, [[t, 0], [0, 1]])
    b = Matrix(F4, [[1, 0], [0, t]])
    got = a.tensor(b)
    want = Matrix(
        F4,
        [
            [t, 0, 0, 0],
            [0, F4.mul(t, t), 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, t],
        ],
    )
    assert got == want


def test_tensor_functorial():
    rng = random.Random(9)
    for _ in range(5):
        a1, a2 = rand_matrix(F4, 2, 2, rng), rand_matrix(F4, 2, 2, rng)
        b1, b2 = rand_matrix(F4, 3, 3, rng), rand_matrix(F4, 3, 3, rng)
        assert (a1 * a2).tensor(b1 * b2) == a1.tensor(b1) * a2.tensor(b2)


def test_wedge_pairs_order():
    assert wedge_pairs(4) == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_exterior_square_swap_is_identity():
    # e0 ^ e1 -> e1 ^ e0 = e0 ^ e1 in characteristic 2
    swap = Matrix(GF2, [[0, 1], [1, 0]])
    assert swap.exterior_square() == Matrix.identity(GF2, 1)


def test_exterior_square_of_cycle_permutes_basis():
    # the 3-cycle e0->e1->e2->e0 sends (01)->(12), (02)->(01), (12)->(02)
    c = Matrix(GF2, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    got = c.exterior_square()
    want = Matrix(GF2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    assert got == want


def test_exterior_square_functorial():
    rng = random.Random(10)
    for ctx in (GF2, F8):
        for _ in range(5):
            a = rand_invertible(ctx, 4, rng)
            b = rand_invertible(ctx, 4, rng)
            assert (a * b).exterior_square() == a.exterior_square() * b.exterior_square()


def test_exterior_square_rejects_rectangles():
    with pytest.raises(BadShape):
        Matrix(GF2, [[1, 0, 0], [0, 1, 0]]).exterior_square()


def test_blowup_of_generator_is_companion_matrix():
    # mult by t on (1, t, t^2) over GF(8)/0xB: t^3 = t + 1
    m = Matrix(F8, [[F8.t]])
    got = m.blowup()
    want = Matrix(GF2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    assert got == want


def test_blowup_functorial_and_identity():
    rng = random.Random(11)
    assert Matrix.identity(F8, 2).blowup() == Matrix.identity(GF2, 6)
    for _ in range(5):
        a = rand_matrix(F8, 2, 3, rng)
        b = rand_matrix(F8, 3, 2, rng)
        assert (a * b).blowup() == a.blowup() * b.blowup()


def test_blowup_respects_vector_coordinates():
    # coordinates of x*a in the power basis come from the packed row action
    rng = random.Random(12)
    a = rand_matrix(F8, 2, 2, rng)
    blown = a.blowup()
    for _ in range(10):
        v = tuple(rng.randrange(8) for _ in range(2))
        img = a.apply(v)
        bits = tuple((v[j] >> r) & 1 for j in range(2) for r in range(3))
        img_bits = tuple((img[j] >> r) & 1 for j in range(2) for r in range(3))
        assert blown.apply(bits) == img_bits


def test_text_roundtrip():
    rng = random.Random(13)
    for ctx in (GF2, F4, F8):
        m = rand_matrix(ctx, 3, 4, rng)
        text = m.to_text()
        lines = text.splitlines()
        parsed, idx = read_matrix(lines, 0)
        assert parsed == m
        assert idx == len(lines)
    head = Matrix.identity(F8, 2).to_text().splitlines()[0]
    assert head == "field 3 poly=0xB"


def test_text_two_matrices_stream():
    a = Matrix.identity(F4, 2)
    b = Matrix(F4, [[1, 2], [3, 0]])
    lines = (a.to_text() + b.to_text()).splitlines()
    first, idx = read_matrix(lines, 0)
    second, idx = read_matrix(lines, idx)
    assert first == a and second == b and idx == len(lines)


def test_entries_are_checked_where_they_enter():
    with pytest.raises(ValueError):
        Matrix(F4, [[5]])
    with pytest.raises(ValueError):
        Matrix(GF2, [[0, 1], [2, 0]])
    with pytest.raises(BadShape):
        Matrix(F4, [[1, 2], [3]])
    # a row with bits past its last entry used to lose them silently
    for row in ("2", "-1"):
        with pytest.raises(BadFormat, match="row at line 3 is out of range"):
            read_matrix(["field 1 poly=0x3", "dim 1 1", row], 0)
    with pytest.raises(BadFormat, match="row at line 4 is out of range"):
        read_matrix(["field 2 poly=0x7", "dim 2 2", "f", "1f"], 0)


def test_subspace_checks_its_entries():
    # each used to pass unchecked: -1 reduced to the basis ((1, 2),), 'x'
    # to ((1, 1),), and 7 raised a bare IndexError from the log table
    for ctx, vec in ((F4, (-1, 1)), (GF2, (1, "x")), (F4, (7, 0))):
        with pytest.raises(ValueError, match="is not an element"):
            Subspace(ctx, [vec], 2)


def test_computed_matrices_equal_their_checked_copies():
    # every method that builds its result unchecked gives valid entries,
    # tuple rows and the shape and hash a checked construction gives
    rng = random.Random(15)
    for ctx in (GF2, F4, F8):
        a = rand_invertible(ctx, 3, rng)
        b = rand_matrix(ctx, 3, 3, rng)
        c = rand_matrix(ctx, 2, 3, rng)
        for m in (
            a * b,
            c.transpose(),
            c.rref()[0],
            c.kernel(),
            c.transpose().kernel(),
            a.inverse(),
            a.tensor(c),
            a.exterior_square(),
            c.blowup(),
        ):
            copy = Matrix(m.ctx, m.rows)
            assert m == copy and hash(m) == hash(copy)
            assert m.shape == copy.shape
            assert all(type(r) is tuple for r in m.rows)


def test_subspace_membership_and_eq():
    s = Subspace(F4, [(1, 0, 1), (0, 1, 0)], 3)
    assert s.dim == 2
    assert s.contains((1, 1, 1))
    assert not s.contains((0, 0, 1))
    # same space from a different spanning set
    s2 = Subspace(F4, [(1, 1, 1), (0, 1, 0), (1, 0, 1)], 3)
    assert s == s2 and hash(s) == hash(s2)


def test_subspace_sum_and_intersection():
    e0 = Subspace(GF2, [(1, 0, 0)], 3)
    e01 = Subspace(GF2, [(1, 0, 0), (0, 1, 0)], 3)
    e12 = Subspace(GF2, [(0, 1, 0), (0, 0, 1)], 3)
    total = e01.sum(e12)
    assert total.dim == 3
    meet = e01.intersection(e12)
    assert meet.dim == 1 and meet.contains((0, 1, 0))
    assert e01.contains_space(e0)
    assert not e12.contains_space(e0)


def test_subspace_intersection_random_dimension_formula():
    rng = random.Random(14)
    for _ in range(20):
        u = Subspace(F4, [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)], 4)
        w = Subspace(F4, [tuple(rng.randrange(4) for _ in range(4)) for _ in range(2)], 4)
        meet = u.intersection(w)
        join = u.sum(w)
        assert u.dim + w.dim == join.dim + meet.dim
        for v in meet.basis:
            assert u.contains(v) and w.contains(v)
