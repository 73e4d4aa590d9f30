"""Test oracles that share no code with the packed elimination: per-cell
row reduction over GF(2^f) and the linear solve built on it."""


class Inconsistent(Exception):
    """list_solve's b is not in the row space of its matrix."""


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


def list_solve(m, b):
    """Some v with v*m = b, else Inconsistent."""
    red, pivots = augmented(m)
    rem = list(b)
    comb = [0] * m.nrows
    for row, p in zip(red, pivots):
        c = rem[p]
        if c:
            rem = [x ^ m.ctx.mul(c, y) for x, y in zip(rem, row[: m.ncols])]
            comb = [x ^ m.ctx.mul(c, y) for x, y in zip(comb, row[m.ncols :])]
    if any(rem):
        raise Inconsistent("b is not in the row space")
    return tuple(comb)
