"""Property tests for the packed elimination against the list path, over
GF(2), GF(4), GF(8), GF(16) and GF(64) with a non-default modulus."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings
from hypothesis import strategies as st

from suzuki2.catalog import (
    SPORADICS,
    entry_gamma_l1,
    entry_path,
    entry_sl,
    entry_sp4,
    load_entry,
    sl_natural_module,
)
from suzuki2.errors import BadShape, FieldMismatch, NoSolution, SingularMatrix
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix, Subspace, _scale, pack, read_matrix, unpack
from suzuki2.repmod import dual, exterior_square, hom_space, restrict_scalars

F4 = FieldContext(2)
FIELDS = [GF2, F4, FieldContext(3), FieldContext(4), FieldContext(6, 0x5B)]


def list_rref(ctx, rows, width, stop_col=None):
    """The list path: per-cell elimination, pivots restricted to stop_col."""
    rows = [list(r) for r in rows]
    stop_col = width if stop_col is None else stop_col
    pivots = []
    for col in range(stop_col):
        sel = next((i for i in range(len(pivots), len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rank = len(pivots)
        rows[rank], rows[sel] = rows[sel], rows[rank]
        c = ctx.inv(rows[rank][col])
        piv = rows[rank] = [ctx.mul(c, x) for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                c = rows[i][col]
                rows[i] = [a ^ ctx.mul(c, b) for a, b in zip(rows[i], piv)]
        pivots.append(col)
    return rows, pivots


def augmented(m):
    """[A | I] in reduced echelon form with pivots among A's columns."""
    n = m.nrows
    aug = [list(r) + [int(k == i) for k in range(n)] for i, r in enumerate(m.rows)]
    return list_rref(m.ctx, aug, m.ncols + n, stop_col=m.ncols)


def list_kernel(m):
    red, _ = augmented(m)
    basis = [row[m.ncols :] for row in red if not any(row[: m.ncols])]
    red, pivots = list_rref(m.ctx, basis, m.nrows)
    return Matrix._of(m.ctx, red[: len(pivots)])


def list_solve(m, b):
    red, pivots = augmented(m)
    rem = list(b)
    comb = [0] * m.nrows
    for row, p in zip(red, pivots):
        c = rem[p]
        if c:
            rem = [x ^ m.ctx.mul(c, y) for x, y in zip(rem, row[: m.ncols])]
            comb = [x ^ m.ctx.mul(c, y) for x, y in zip(comb, row[m.ncols :])]
    if any(rem):
        raise NoSolution("inconsistent linear system")
    return tuple(comb)


def list_inverse(m):
    red, pivots = augmented(m)
    if len(pivots) < m.nrows:
        raise SingularMatrix("singular")
    return Matrix._of(m.ctx, [row[m.ncols :] for row in red])


def outcome(fn, *args):
    try:
        return fn(*args)
    except (NoSolution, SingularMatrix) as exc:
        return type(exc)


@st.composite
def matrices(draw, square=False):
    ctx = draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 7))
    ncols = nrows if square else draw(st.integers(0, 7))
    entry = st.integers(0, ctx.size - 1)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return Matrix(ctx, rows)


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_rref_and_kernel_agree_with_the_list_path(m):
    rows, pivots = list_rref(m.ctx, m.rows, m.ncols)
    red, got_pivots = m.rref()
    assert got_pivots == tuple(pivots)
    assert red == Matrix._of(m.ctx, rows)
    ker = m.kernel()
    assert ker == list_kernel(m)
    assert ker.nrows == m.nrows - len(pivots)
    for v in ker.rows:
        assert len(v) == m.nrows
        assert not any(m.apply(v))


@settings(deadline=None, max_examples=200)
@given(matrices(), st.data())
def test_solve_agrees_with_the_list_path(m, data):
    entry = st.integers(0, m.ctx.size - 1)
    if data.draw(st.booleans()):
        # a reachable right-hand side
        v = data.draw(st.lists(entry, min_size=m.nrows, max_size=m.nrows))
        b = m.apply(v) if m.nrows else (0,) * m.ncols
    else:
        b = tuple(data.draw(st.lists(entry, min_size=m.ncols, max_size=m.ncols)))
    got = outcome(m.solve, b)
    assert got == outcome(list_solve, m, b)
    if got is not NoSolution:
        assert len(got) == m.nrows
        assert (m.apply(got) if m.nrows else (0,) * m.ncols) == tuple(b)


@settings(deadline=None, max_examples=200)
@given(matrices(square=True))
def test_inverse_agrees_with_the_list_path(m):
    got = outcome(m.inverse)
    assert got == outcome(list_inverse, m)
    if got is not SingularMatrix:
        assert m * got == Matrix.identity(m.ctx, m.nrows)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(FIELDS).flatmap(
    lambda ctx: st.tuples(st.just(ctx), st.lists(st.integers(0, ctx.size - 1), max_size=40))
))
def test_scaling_a_packed_row_scales_every_entry(case):
    ctx, row = case
    mask = pack(row, ctx.n)
    for c in range(ctx.size):
        assert unpack(_scale(ctx, mask, c), len(row), ctx.n) == tuple(ctx.mul(c, a) for a in row)


@pytest.mark.parametrize("ctx", FIELDS, ids=lambda ctx: f"f{ctx.n}-{ctx.poly:#x}")
def test_times_t_reduces_every_entry_with_its_top_bit_set(ctx):
    # each entry overflows into the next block's bit 0 position, and only
    # the fold by the modulus brings it back
    top = ctx.size >> 1
    for row in ([top] * 9, [ctx.size - 1] * 9, [top, 0, ctx.size - 1, 1, top]):
        got = _scale(ctx, pack(row, ctx.n), ctx.t)
        assert unpack(got, len(row), ctx.n) == tuple(ctx.mul(ctx.t, a) for a in row)
        assert got >> ctx.n * len(row) == 0


def packed_rows():
    """(f, row) with f in 1..4 and a row of GF(2^f) entries."""
    return st.integers(1, 4).flatmap(
        lambda f: st.tuples(st.just(f), st.lists(st.integers(0, (1 << f) - 1), max_size=300))
    )


@settings(deadline=None)
@given(packed_rows())
def test_pack_and_unpack_are_inverse(case):
    f, row = case
    mask = pack(row, f)
    assert mask == sum(x << (f * j) for j, x in enumerate(row))
    assert unpack(mask, len(row), f) == tuple(row)
    assert unpack(mask | 1 << (f * len(row)), len(row), f) == tuple(row)
    assert pack(tuple(row), f) == mask
    # the text format stores a row as its packed mask in hex
    m = Matrix(FieldContext(f), [row])
    text = m.to_text().splitlines()
    assert int(text[2], 16) == mask
    assert read_matrix(text, 0) == (m, 3)


def test_pack_rejects_entries_outside_gf2():
    for row in ([2], [0, 1, 3], [1, 255]):
        with pytest.raises(ValueError):
            pack(row)


def test_gf2_solve_rejects_a_wrong_length_and_an_inconsistent_system():
    m = Matrix(GF2, [[1, 0], [1, 0]])
    with pytest.raises(BadShape):
        m.solve((1,))
    with pytest.raises(NoSolution):
        m.solve((0, 1))
    with pytest.raises(SingularMatrix):
        m.inverse()
    assert m.solve((1, 0)) == (1, 0)


@settings(deadline=None, max_examples=200)
@given(matrices())
def test_trusted_subspace_equals_the_checked_one(m):
    checked = Subspace(m.ctx, m.rows, m.ncols)
    trusted = Subspace._of(m.ctx, m.rows, m.ncols)
    assert trusted == checked and trusted.pivots == checked.pivots


def test_public_subspace_rejects_an_out_of_field_entry():
    with pytest.raises(ValueError):
        Subspace(GF2, [(0, 2)], 2)
    with pytest.raises(ValueError):
        Subspace(F4, [(1, 4, 0)], 3)
    with pytest.raises(ValueError):
        Subspace(GF2, [(0, -1)], 2)
    with pytest.raises(BadShape):
        Subspace(GF2, [(1, 0, 1)], 2)
    assert Subspace(F4, [(1, 3, 0)], 3).dim == 1


def test_sum_and_intersection_reject_another_field_or_ambient():
    a = Subspace(GF2, [(1, 0, 1)], 3)
    for other, error in ((Subspace(F4, [(1, 0, 1)], 3), FieldMismatch),
                         (Subspace(GF2, [(1, 0)], 2), BadShape)):
        with pytest.raises(error):
            a.sum(other)
        with pytest.raises(error):
            a.intersection(other)


def catalog_modules():
    mods = [load_entry(entry_path(name)).module() for name in SPORADICS]
    mods += [entry_sl(2, 3).module(), entry_sl(3, 1).module(), entry_gamma_l1(4).module(),
             entry_sp4(1).module()]
    nat = sl_natural_module(2, 3)
    mods += [nat, restrict_scalars(nat), exterior_square(restrict_scalars(nat))]
    return mods


def test_hom_spaces_of_the_catalog_modules_match_the_list_path(monkeypatch):
    pairs = [(m, m) for m in catalog_modules()] + [(m, dual(m)) for m in catalog_modules()]
    packed = [hom_space(a, b) for a, b in pairs]
    assert any(packed) and any(m1.ctx != GF2 for m1, _ in pairs)
    monkeypatch.setattr(Matrix, "kernel", list_kernel)
    assert [hom_space(a, b) for a, b in pairs] == packed
