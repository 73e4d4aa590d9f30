"""Transitive linear groups over GF(2): families and sporadic data entries.

Families come from explicit generator rules: multiplication-by-generator and
Frobenius for the 1-dim semilinear case, transvections plus a cycle for SL,
symplectic transvections for the fixed antidiagonal form for Sp4. Everything
is blown up to GF(2) matrices with expected invariants from the classical
order formulas; nothing counts as verified until verify_entry has recomputed
order, transitivity and solvability from the generators.

The five sporadic entries in dimensions 4 and 6 are data files plus a seeded
discovery procedure that re-derives them inside GL4(2) or Sp6(2); shipped
files record the seed that found them.
"""

import os
import re
from pathlib import Path

from .errors import (
    BadFormat,
    BadShape,
    NotFound,
    NotSymplectic,
    SingularMatrix,
    Unsupported,
)
from .gf2n import FieldContext
from .linalg import GF2, Matrix, point_matrix, read_matrix, skip_comments, unpack
from .permgrp import (
    DEFAULT_BUDGET,
    compose,
    derived_series,
    orbit,
    random_subgroup_search,
)
from .repmod import GModule, point_permutations


def gamma_l1_order(n):
    return n * ((1 << n) - 1)


def sl_order(m, q):
    o = q ** (m * (m - 1) // 2)
    for i in range(2, m + 1):
        o *= q**i - 1
    return o


def sp_order(m, q):
    o = q ** (m * m)
    for i in range(1, m + 1):
        o *= q ** (2 * i) - 1
    return o


class CatalogEntry:
    """GF(2) matrix generators for one transitive linear group candidate.

    expected holds the classical invariants {order, transitive, solvable,
    class}; verified flips to True only after verify_entry has recomputed
    all of them from the generators. container, ("gamma_l1", 1, n),
    ("sl", m, f) or ("sp4", 4, f), names a classical group claimed to
    hold the generators; verify_entry re-checks it before using its order.
    """

    __slots__ = ("name", "n", "generators", "expected", "verified", "provenance", "container")

    def __init__(self, name, n, generators, expected, provenance=None, container=None):
        self.name = name
        self.n = n
        self.generators = tuple(generators)
        for g in self.generators:
            if g.ctx != GF2 or g.shape != (n, n):
                raise BadShape(f"{name}: generators must be {n} x {n} over GF(2)")
            if not g.is_invertible():
                raise SingularMatrix(f"{name}: singular generator")
        self.expected = dict(expected)
        self.verified = False
        self.provenance = dict(provenance) if provenance else None
        self.container = container

    def module(self):
        return GModule.from_matrices(self.generators)

    def point_perms(self):
        return point_permutations(self.module())

    def __repr__(self):
        flag = "verified" if self.verified else "unverified"
        return f"CatalogEntry({self.name}, n={self.n}, {flag})"


def frobenius_matrix(ctx):
    """Squaring on GF(2^n) as an n x n GF(2) matrix in the power basis."""
    return Matrix(GF2, [unpack(ctx.frobenius(ctx.pow(ctx.t, i)), ctx.n) for i in range(ctx.n)])


def entry_gamma_l1(n):
    """Semilinear group of GF(2^n) acting on its n-dim GF(2) space."""
    if not 2 <= n <= 10:
        raise Unsupported(f"supported degrees are 2..10, got {n}")
    ctx = FieldContext(n)
    gens = [Matrix(ctx, [[ctx.t]]).blowup(), frobenius_matrix(ctx)]
    expected = {
        "order": gamma_l1_order(n),
        "transitive": True,
        "solvable": True,
        "class": "i",
    }
    return CatalogEntry(f"gamma_l1_{n}", n, gens, expected, container=("gamma_l1", 1, n))


def sl_natural_module(m, f):
    """Natural dim-m module of SL_m(2^f) over GF(2^f), before any blowup.

    Generators: the transvections I + E12 and (for f > 1) I + t*E12, and
    the m-cycle permutation matrix.
    """
    if m < 2 or f < 1 or m * f > 10:
        raise Unsupported(f"need m >= 2, f >= 1, m*f <= 10, got ({m}, {f})")
    ctx = FieldContext(f)
    mats = []
    for c in [1] if f == 1 else [1, ctx.t]:
        e = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
        e[0][1] = c
        mats.append(Matrix(ctx, e))
    mats.append(
        Matrix(ctx, [[1 if j == (i + 1) % m else 0 for j in range(m)] for i in range(m)])
    )
    return GModule.from_matrices(mats)


def entry_sl(m, f):
    q = 2**f
    mod = sl_natural_module(m, f)
    gens = [g.blowup() for g in mod.matrices()]
    expected = {
        "order": sl_order(m, q),
        "transitive": True,
        "solvable": (m, f) == (2, 1),
        "class": "iii",
    }
    return CatalogEntry(f"sl{m}_gf{q}", m * f, gens, expected, container=("sl", m, f))


def antidiagonal_form(ctx, d):
    """The fixed alternating form: ones on the antidiagonal."""
    return Matrix(ctx, [[1 if i + j == d - 1 else 0 for j in range(d)] for i in range(d)])


def symplectic_transvection(ctx, jmat, v, c):
    """x -> x + c <x, v> v with <x, y> = x J y^T, as a row-vector matrix."""
    v = tuple(v)
    jv = jmat.apply(v)
    d = len(v)
    rows = []
    for i in range(d):
        row = [1 if i == j else 0 for j in range(d)]
        coef = ctx.mul(c, jv[i])
        if coef:
            for j in range(d):
                if v[j]:
                    row[j] ^= ctx.mul(coef, v[j])
        rows.append(row)
    return Matrix(ctx, rows)


def require_symplectic(mats, jmat):
    """Check g^T J g = J for every matrix; raise NotSymplectic otherwise."""
    for g in mats:
        if g.transpose() * jmat * g != jmat:
            raise NotSymplectic("matrix does not preserve the form")


def _transvection_vectors(d):
    # basis vectors plus e1 + ej for j = 2..d-1; enough to generate Sp_d
    vecs = []
    for i in range(d):
        e = [0] * d
        e[i] = 1
        vecs.append(tuple(e))
    for j in range(1, d - 1):
        e = [0] * d
        e[0] = 1
        e[j] = 1
        vecs.append(tuple(e))
    return vecs


def sp4_natural_module(f):
    """Natural dim-4 module of Sp4(2^f) over GF(2^f), before any blowup."""
    if f < 1 or 4 * f > 12:
        raise Unsupported(f"supported degrees are 1..3, got {f}")
    ctx = FieldContext(f)
    jmat = antidiagonal_form(ctx, 4)
    units = [1] if f == 1 else [1, ctx.t]
    gens = [
        symplectic_transvection(ctx, jmat, v, c)
        for v in _transvection_vectors(4)
        for c in units
    ]
    require_symplectic(gens, jmat)
    return GModule.from_matrices(gens)


def entry_sp4(f):
    q = 2**f
    mod = sp4_natural_module(f)
    gens = [g.blowup() for g in mod.matrices()]
    expected = {
        "order": sp_order(2, q),
        "transitive": True,
        "solvable": False,
        "class": "iii",
    }
    return CatalogEntry(f"sp4_gf{q}", 4 * f, gens, expected, container=("sp4", 4, f))


def sp6_generators():
    """Transvection generators of Sp6(2), the dim-6 discovery ambient."""
    jmat = antidiagonal_form(GF2, 6)
    gens = [
        symplectic_transvection(GF2, jmat, v, 1) for v in _transvection_vectors(6)
    ]
    require_symplectic(gens, jmat)
    return gens


def _containment_bounds(entry, perms):
    """(|H|, a bound on |G'|) once every generator is shown to lie in the
    group H that entry.container names, else (None, None).

    S is the point map of t*I on GF(q)^m, q = 2^f. A GF(2)-linear g with
    compose(S, g) = compose(g, S^(2^k)) has g(tv) = t^(2^k) g(v), so
    g(av) = a^(2^k) g(v) for all a in GF(q) = GF(2)[t]. For k = 0, g is
    GF(q)-linear: G <= GL_m(q) and G' <= SL_m(q). In dimension 1 any k
    gives G <= GammaL1(q) and G' <= GL1(q), as GammaL1(q)/GL1(q) is
    abelian. An sp4 generator's GF(q) matrix, row i the image of the unit
    point of coordinate i, must also preserve the form.
    """
    family, m, f = entry.container or (None, 0, 0)
    if m * f != entry.n or (family, m) not in (("gamma_l1", 1), ("sl", m), ("sp4", 4)):
        return None, None
    ctx = FieldContext(f)
    q = 1 << f
    scalar = Matrix(ctx, [[ctx.t if i == j else 0 for j in range(m)] for i in range(m)])
    powers = point_permutations(GModule.from_matrices([scalar]))
    for _ in range(1, f if family == "gamma_l1" else 1):
        powers.append(compose(powers[-1], powers[-1]))
    for g in perms:
        sg = compose(powers[0], g)
        if not any(sg == compose(g, p) for p in powers):
            return None, None
    if family == "gamma_l1":
        return gamma_l1_order(f), q - 1
    if family == "sl":
        return (q - 1) * sl_order(m, q), sl_order(m, q)
    mats = [Matrix(ctx, [unpack(g[1 << f * i], m, f) for i in range(m)]) for g in perms]
    try:
        require_symplectic(mats, antidiagonal_form(ctx, m))
    except NotSymplectic:
        return None, None
    return sp_order(m // 2, q), sp_order(m // 2, q)


def verify_entry(entry):
    """Recompute order, transitivity, solvability; mark verified on match.

    One chain gives both the solvability and the order. The derived
    series ends in the trivial group exactly when G is solvable. Its
    first term is a complete chain of G' = [G, G], and add(g) for each
    generator g keeps it complete for the group it describes, which ends
    as <G', gens> = G; so its order is |G| exactly. For a perfect group
    each add is only a membership strip, and G's own chain, the costly
    one at large orders, is never built from its generators.

    When the generators are shown to lie in the classical group H that
    the entry names (_containment_bounds, from the generators alone and
    never from entry.expected), the chain of G' stops testing Schreier
    pairs at the bound on |G'| and that of G at |H|; StabChain.bound
    proves the stops exact. Otherwise the chains run unbounded.
    Transitivity is read off the public orbit; validating the maps costs
    one set per generator, next to nothing beside the chain.
    """
    perms = entry.point_perms()
    npts = 1 << entry.n
    bound, derived_bound = _containment_bounds(entry, perms)
    series = derived_series(perms, npts, derived_bound)
    solvable = series[-1].order() == 1
    chain = series[0]
    chain.bound = bound
    for g in perms:
        chain.add(g)
    computed = {
        "order": chain.order(),
        "transitive": len(orbit(perms, 1)) == npts - 1,
        "solvable": solvable,
    }
    checks = [
        {
            "name": key,
            "expected": entry.expected[key],
            "computed": computed[key],
            "passed": computed[key] == entry.expected[key],
        }
        for key in ("order", "transitive", "solvable")
    ]
    passed = all(c["passed"] for c in checks)
    entry.verified = passed
    return {"name": entry.name, "n": entry.n, "checks": checks, "passed": passed}


def data_directory():
    """Shipped data files; the SUZUKI2_DATA environment variable overrides."""
    env = os.environ.get("SUZUKI2_DATA")
    return Path(env) if env else Path(__file__).resolve().parent / "data"


def entry_path(name, data_dir=None):
    base = Path(data_dir) if data_dir is not None else data_directory()
    return base / f"{name}.txt"


def save_entry(entry, path):
    """Write matrix blocks plus the expect trailer; returns the text."""
    lines = [f"# {entry.name}: {entry.n} x {entry.n} generators over GF(2)"]
    if entry.provenance:
        lines.append("# " + " ".join(f"{k}={v}" for k, v in sorted(entry.provenance.items())))
    text = "\n".join(lines) + "\n"
    for g in entry.generators:
        text += g.to_text()
    e = entry.expected
    text += (
        f"expect order={e['order']} "
        f"transitive={1 if e['transitive'] else 0} "
        f"solvable={1 if e['solvable'] else 0}\n"
    )
    Path(path).write_text(text)
    return text


def _parse_trailer(line):
    parts = line.split()
    out = {}
    for p in parts[1:]:
        try:
            k, v = p.split("=", 1)
            value = int(v)
        except ValueError as exc:
            raise BadFormat(f"bad trailer field {p!r}") from exc
        if k in out:
            raise BadFormat(f"trailer field {k!r} is given twice")
        out[k] = value
    if sorted(out) != ["order", "solvable", "transitive"]:
        raise BadFormat(f"trailer must set order, transitive, solvable: {line!r}")
    if out["transitive"] not in (0, 1) or out["solvable"] not in (0, 1):
        raise BadFormat("transitive and solvable must be 0 or 1")
    return {
        "order": out["order"],
        "transitive": bool(out["transitive"]),
        "solvable": bool(out["solvable"]),
    }


def load_entry(path):
    """Parse matrix blocks plus the expect trailer; name is the file stem."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise BadFormat(f"{path.name}: not text ({exc.reason})") from None
    provenance = {}
    for ln in lines:
        s = ln.strip()
        if s.startswith("#"):
            for key in ("seed", "budget"):
                m = re.search(rf"{key}=(\d+)", s)
                if m:
                    provenance[key] = int(m.group(1))
    gens = []
    expected = None
    idx = skip_comments(lines, 0)
    while idx < len(lines):
        if lines[idx].split()[0] == "expect":
            expected = _parse_trailer(lines[idx])
            if skip_comments(lines, idx + 1) < len(lines):
                raise BadFormat("content after the expect trailer")
            break
        mat, idx = read_matrix(lines, idx)
        gens.append(mat)
        idx = skip_comments(lines, idx)
    if expected is None:
        raise BadFormat(f"{path.name}: missing expect trailer")
    if not gens:
        raise BadFormat(f"{path.name}: no generator matrices")
    expected["class"] = "ii"
    return CatalogEntry(path.stem, gens[0].nrows, gens, expected, provenance or None)


def load_sporadic(name, data_dir=None):
    """load_entry of a SPORADICS name's data file; BadFormat if its n or
    trailer order is not the one SPORADICS records (another entry's file)."""
    path = entry_path(name, data_dir)
    entry = load_entry(path)
    have = {"n": entry.n, "order": entry.expected["order"]}
    if have != SPORADICS[name]:
        raise BadFormat(f"{path.name} holds {have}, not {name}'s {SPORADICS[name]}")
    return entry


SPORADICS = {
    "a6": {"n": 4, "order": 360},
    "sp4_2": {"n": 4, "order": 720},
    "a7": {"n": 4, "order": 2520},
    "psu3_3": {"n": 6, "order": 6048},
    "g2_2": {"n": 6, "order": 12096},
}


def _ambient_generators(n):
    if n == 4:
        return list(entry_sl(4, 1).generators)
    if n == 6:
        return sp6_generators()
    raise Unsupported(f"no discovery ambient for dimension {n}")


def discover_entry(target, seed, budget=DEFAULT_BUDGET, data_dir=None, write=True):
    """Seeded hunt for a sporadic entry; verifies it and writes the data file.

    Dimension-4 targets are sought in GL4(2); dimension-6 targets inside
    Sp6(2), whose form-preserving elements cut the search space. The same
    seed always reproduces the same entry.
    """
    if target not in SPORADICS:
        raise Unsupported(f"unknown sporadic target {target!r}; know {sorted(SPORADICS)}")
    info = SPORADICS[target]
    n, order = info["n"], info["order"]
    perms = point_permutations(GModule.from_matrices(_ambient_generators(n)))
    npts = 1 << n

    def transitive(pair):
        return len(orbit(list(pair), 1, npts)) == npts - 1

    p, q = random_subgroup_search(perms, order, transitive, seed, budget=budget, npoints=npts)
    gens = [point_matrix(p, n), point_matrix(q, n)]
    expected = {"order": order, "transitive": True, "solvable": False, "class": "ii"}
    entry = CatalogEntry(target, n, gens, expected, {"seed": seed, "budget": budget})
    if not verify_entry(entry)["passed"]:
        raise NotFound(f"{target}: discovered candidate failed verification")
    if write:
        path = entry_path(target, data_dir)
        path.parent.mkdir(parents=True, exist_ok=True)
        save_entry(entry, path)
    return entry
