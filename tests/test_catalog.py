"""Catalog entries: family generators, verification, data files, discovery."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from suzuki2 import catalog, permgrp
from suzuki2.catalog import (
    SPORADICS,
    CatalogEntry,
    _containment_bounds,
    _parse_trailer,
    antidiagonal_form,
    data_directory,
    discover_entry,
    entry_gamma_l1,
    entry_path,
    entry_sl,
    entry_sp4,
    frobenius_matrix,
    gamma_l1_order,
    load_entry,
    require_symplectic,
    save_entry,
    sl_natural_module,
    sl_order,
    sp4_natural_module,
    sp6_generators,
    sp_order,
    symplectic_transvection,
    verify_entry,
)
from suzuki2.errors import (
    BadFormat,
    BadShape,
    NotFound,
    NotSymplectic,
    SingularMatrix,
    Unsupported,
)
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import GF2, Matrix
from suzuki2.permgrp import StabChain, compose, derived_series, invert, orbit
from suzuki2.repmod import GModule, point_permutations

ROOT = Path(__file__).resolve().parents[1]


def test_order_formulas():
    assert gamma_l1_order(2) == 6
    assert gamma_l1_order(3) == 21
    assert gamma_l1_order(10) == 10230
    assert sl_order(2, 2) == 6
    assert sl_order(3, 2) == 168
    assert sl_order(2, 4) == 60
    assert sl_order(3, 4) == 60480
    assert sl_order(4, 2) == 20160
    assert sp_order(2, 2) == 720
    assert sp_order(2, 4) == 979200
    assert sp_order(3, 2) == 1451520


def test_gamma_l1_entries_verify():
    for n in range(2, 11):
        entry = entry_gamma_l1(n)
        assert entry.name == f"gamma_l1_{n}"
        assert not entry.verified
        report = verify_entry(entry)
        assert report["passed"]
        assert entry.verified
        assert entry.expected["order"] == n * (2**n - 1)
        assert entry.expected["solvable"] is True
        assert entry.expected["class"] == "i"


def test_gamma_l1_bounds():
    with pytest.raises(Unsupported):
        entry_gamma_l1(1)
    with pytest.raises(Unsupported):
        entry_gamma_l1(11)


def test_frobenius_matrix_squares():
    ctx = FieldContext(4)
    fr = frobenius_matrix(ctx)
    for x in range(16):
        vec = tuple((x >> i) & 1 for i in range(4))
        img = fr.apply(vec)
        packed = sum(b << i for i, b in enumerate(img))
        assert packed == ctx.frobenius(x)


def test_sl_entries_verify():
    cases = {(2, 1): 6, (3, 1): 168, (2, 2): 60, (3, 2): 60480}
    for (m, f), order in cases.items():
        entry = entry_sl(m, f)
        assert entry.name == f"sl{m}_gf{2**f}"
        assert entry.n == m * f
        assert entry.expected["order"] == order
        assert entry.expected["class"] == "iii"
        assert verify_entry(entry)["passed"]
    assert entry_sl(2, 1).expected["solvable"] is True
    assert entry_sl(3, 1).expected["solvable"] is False


def test_sl_natural_module_shape():
    mod = sl_natural_module(3, 2)
    assert mod.ctx.n == 2
    assert mod.dim == 3
    assert len(mod.symbols) == 3


def test_sl_bounds():
    for m, f in ((1, 1), (2, 0), (4, 3), (11, 1)):
        with pytest.raises(Unsupported):
            entry_sl(m, f)


def test_sl3_transitive_on_seven():
    perms = entry_sl(3, 1).point_perms()
    assert len(orbit(perms, 1, 8)) == 7


def test_sp4_entries_verify():
    for f, order in ((1, 720), (2, 979200)):
        entry = entry_sp4(f)
        assert entry.name == f"sp4_gf{2**f}"
        assert entry.expected["order"] == order
        assert entry.expected["solvable"] is False
        assert verify_entry(entry)["passed"]


# The child reads its peak from VmHWM, the high-water mark of its own
# address space: on Linux, ru_maxrss after exec also keeps the peak of
# the process that started it, here the whole test session.
SP4_8_CHILD = """
from suzuki2 import catalog, permgrp

calls = 0
real = permgrp.compose


def counting(p, q):
    global calls
    calls += 1
    return real(p, q)


permgrp.compose = counting
entry = catalog.entry_sp4(3)
report = catalog.verify_entry(entry)
order = next(c["computed"] for c in report["checks"] if c["name"] == "order")
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(1 << entry.n, report["passed"], order, calls, peak)
"""


def test_sp4_8_entry_verifies_on_4096_points():
    # in a child interpreter, so that the peak memory is this run's own;
    # with every transversal word formed during the orbit walk, the run
    # took 10,877 compositions and peaked at 171 MB on CPython 3.11.7
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", SP4_8_CHILD],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    points, passed, order, calls, peak_kib = out
    assert points == "4096" and passed == "True"
    assert int(order) == sp_order(2, 8) == 1_056_706_560
    assert int(calls) <= 7000
    assert int(peak_kib) < 80 * 1024




def computed(report, name):
    return next(c["computed"] for c in report["checks"] if c["name"] == name)


ORDER_ENTRIES = {
    "gamma_l1:3": lambda: entry_gamma_l1(3),
    "gamma_l1:10": lambda: entry_gamma_l1(10),
    "sl:2:1": lambda: entry_sl(2, 1),
    "sl:4:1": lambda: entry_sl(4, 1),
    "sl:2:5": lambda: entry_sl(2, 5),
    "sp4:1": lambda: entry_sp4(1),
    "sp4:2": lambda: entry_sp4(2),
    **{name: lambda name=name: load_entry(entry_path(name)) for name in SPORADICS},
}


@pytest.mark.parametrize("name", ORDER_ENTRIES)
def test_verify_entry_order_equals_a_chain_built_from_the_generators(name):
    # verify_entry grows the chain of G' by G's generators; the groups here
    # that are not perfect (gamma_l1, sl:2:1, sp4:1, a6, sp4_2, g2_2) show
    # that the growth reaches all of G and not only G'
    entry = ORDER_ENTRIES[name]()
    perms = entry.point_perms()
    assert computed(verify_entry(entry), "order") == StabChain(perms, len(perms[0])).order()


BOUNDED_ENTRIES = {
    "sl:2:5": (lambda: entry_sl(2, 5), (31 * 32736, 32736)),
    "gamma_l1:10": (lambda: entry_gamma_l1(10), (10230, 1023)),
    "sp4:2": (lambda: entry_sp4(2), (979200, 979200)),
}


def with_generator(entry, extra):
    """entry with one more generator, keeping its expected values and its
    container claim."""
    gens = list(entry.generators) + [extra]
    return CatalogEntry(entry.name, entry.n, gens, entry.expected, container=entry.container)


@pytest.mark.parametrize("name", BOUNDED_ENTRIES)
def test_containment_certificate_accepts_the_family_generators(name):
    make, bounds = BOUNDED_ENTRIES[name]
    entry = make()
    assert _containment_bounds(entry, entry.point_perms()) == bounds


def test_containment_certificate_needs_a_claim_of_the_right_size():
    entry = entry_sl(2, 5)
    perms = entry.point_perms()
    entry.container = None
    assert _containment_bounds(entry, perms) == (None, None)
    # a claim whose shape does not match the points, or that names a
    # group in another dimension than its family allows, is declined
    for claim in (("sl", 2, 4), ("gamma_l1", 2, 5), ("sp4", 2, 5), ("gl", 2, 5)):
        entry.container = claim
        assert _containment_bounds(entry, perms) == (None, None)


def verify_entry_chain(monkeypatch, entry):
    """The report of verify_entry, the chain of G it built and the bound
    it gave the chain of G'."""
    series, bounds = [], []
    real = catalog.derived_series

    def recording(perms, npoints, bound):
        bounds.append(bound)
        series.extend(real(perms, npoints, bound))
        return series

    monkeypatch.setattr(catalog, "derived_series", recording)
    report = verify_entry(entry)
    monkeypatch.undo()
    return report, series[0], bounds[0]


def test_bound_is_never_read_from_expected(monkeypatch):
    # 2046 is an order the chain of SL2(32) passes on its way up, so a chain
    # that took it as its bound would stop there
    entry = entry_sl(2, 5)
    perms = entry.point_perms()
    assert derived_series(perms, 1024, 2046)[0].order() == 2046
    entry.expected["order"] = 2046
    report, chain, derived_bound = verify_entry_chain(monkeypatch, entry)
    assert (chain.bound, derived_bound) == (31 * 32736, 32736)
    assert computed(report, "order") == 32736
    assert report["passed"] is False


def coordinatewise_frobenius(m, f):
    fr = frobenius_matrix(FieldContext(f)).rows
    d = m * f
    return Matrix(
        GF2, [[fr[r % f][c % f] if r // f == c // f else 0 for c in range(d)] for r in range(d)]
    )


def test_semilinear_generator_declines_the_sl_certificate():
    entry = with_generator(entry_sl(2, 5), coordinatewise_frobenius(2, 5))
    assert _containment_bounds(entry, entry.point_perms()) == (None, None)
    report = verify_entry(entry)
    # SigmaL2(32) = SL2(32):5, found by the unbounded chain
    assert computed(report, "order") == 5 * 32736 == 163_680
    assert report["passed"] is False


def test_nonsymplectic_generator_declines_the_sp4_certificate():
    ctx = FieldContext(2)
    shear = Matrix(ctx, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSymplectic):
        require_symplectic([shear], antidiagonal_form(ctx, 4))
    entry = with_generator(entry_sp4(2), shear.blowup())
    perms = entry.point_perms()
    # the shear commutes with the scalar t, so only the form test declines it
    scalar = Matrix(ctx, [[ctx.t if i == j else 0 for j in range(4)] for i in range(4)])
    (s,) = point_permutations(GModule.from_matrices([scalar]))
    assert compose(s, perms[-1]) == compose(perms[-1], s)
    assert _containment_bounds(entry, perms) == (None, None)


@pytest.mark.parametrize("name", BOUNDED_ENTRIES)
def test_bounded_chain_answers_membership_like_the_unbounded_one(monkeypatch, name):
    make, (bound, _) = BOUNDED_ENTRIES[name]
    entry = make()
    report, bounded, _ = verify_entry_chain(monkeypatch, entry)
    assert report["passed"] and bounded.bound == bound
    perms = entry.point_perms()
    oracle = StabChain(perms)
    rng = random.Random(29)
    npts = len(perms[0])
    members = []
    for _ in range(20):
        p = tuple(range(npts))
        for _ in range(rng.randrange(1, 12)):
            g = rng.choice(perms)
            p = compose(p, g if rng.randrange(2) else invert(g))
        members.append(p)
    for p in members:
        assert bounded.contains(p) and oracle.contains(p)
    # swapping the images of two nonzero points keeps 0 fixed but is not linear
    outsider = list(members[0])
    outsider[1], outsider[2] = outsider[2], outsider[1]
    assert not bounded.contains(outsider) and not oracle.contains(outsider)


def count_compositions(monkeypatch, run):
    calls = [0]
    real = permgrp.compose

    def counting(p, q):
        calls[0] += 1
        return real(p, q)

    monkeypatch.setattr(permgrp, "compose", counting)
    monkeypatch.setattr(catalog, "compose", counting)
    out = run()
    monkeypatch.undo()
    return out, calls[0]


@pytest.mark.parametrize("name, limit", [("sl:2:5", 1300), ("gamma_l1:10", 1100)])
def test_verify_entry_stops_at_the_certified_order(monkeypatch, name, limit):
    # the unbounded chains take about 3,000 compositions on these entries;
    # the certificate's own compositions are counted too
    entry = BOUNDED_ENTRIES[name][0]()
    report, calls = count_compositions(monkeypatch, lambda: verify_entry(entry))
    assert report["passed"]
    assert calls <= limit


@pytest.mark.parametrize("name, limit", [("sl:2:5", 300), ("gamma_l1:10", 20)])
def test_catalog_chains_form_only_the_words_they_read(monkeypatch, name, limit):
    # the chain's own compositions: with every transversal word formed
    # during the orbit walk they were 1,196 and 1,044, most of them
    # level-0 words that the certified order made unread
    entry = BOUNDED_ENTRIES[name][0]()
    calls = []
    real = permgrp.compose

    def counting(p, q):
        calls.append(None)
        return real(p, q)

    monkeypatch.setattr(permgrp, "compose", counting)
    report = verify_entry(entry)
    monkeypatch.undo()
    assert report["passed"]
    assert len(calls) <= limit


def test_sp4_bounds():
    with pytest.raises(Unsupported):
        entry_sp4(0)
    with pytest.raises(Unsupported):
        entry_sp4(4)


def test_transvections_preserve_form():
    ctx = FieldContext(2)
    jmat = antidiagonal_form(ctx, 4)
    mats = [
        symplectic_transvection(ctx, jmat, v, c)
        for v in ((1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 3, 0))
        for c in (1, 2, 3)
    ]
    require_symplectic(mats, jmat)


def test_require_symplectic_rejects():
    jmat = antidiagonal_form(GF2, 4)
    shear = Matrix(GF2, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(NotSymplectic):
        require_symplectic([shear], jmat)


def test_sp6_ambient_order():
    perms = point_permutations(GModule.from_matrices(sp6_generators()))
    assert StabChain(perms, 64).order() == sp_order(3, 2)


def test_entry_validation():
    good = Matrix(GF2, [[0, 1], [1, 0]])
    singular = Matrix(GF2, [[1, 1], [1, 1]])
    expected = {"order": 2, "transitive": False, "solvable": True, "class": "i"}
    with pytest.raises(SingularMatrix):
        CatalogEntry("bad", 2, [good, singular], expected)
    with pytest.raises(BadShape):
        CatalogEntry("bad", 3, [good], expected)
    wide = Matrix(FieldContext(2), [[1, 0], [0, 1]])
    with pytest.raises(BadShape):
        CatalogEntry("bad", 2, [wide], expected)


def test_entry_module_roundtrip():
    entry = entry_sl(2, 2)
    mod = entry.module()
    assert mod.ctx == GF2
    assert mod.dim == 4
    assert mod.matrices() == entry.generators


def test_verify_entry_reports_mismatch():
    entry = entry_sl(3, 1)
    entry.expected["order"] = 169
    report = verify_entry(entry)
    assert report["passed"] is False
    assert entry.verified is False
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["order"]["computed"] == 168
    assert by_name["order"]["passed"] is False
    assert by_name["transitive"]["passed"] is True
    assert by_name["solvable"]["passed"] is True


def test_save_load_roundtrip(tmp_path):
    entry = entry_sl(3, 1)
    path = tmp_path / "sl3_gf2.txt"
    text = save_entry(entry, path)
    assert text == path.read_text()
    loaded = load_entry(path)
    assert loaded.name == "sl3_gf2"
    assert loaded.generators == entry.generators
    assert loaded.expected["order"] == 168
    assert loaded.expected["class"] == "ii"
    assert verify_entry(loaded)["passed"]
    # saving the loaded entry reproduces the file byte for byte
    assert save_entry(loaded, tmp_path / "again.txt") == text


def test_load_entry_bad_format(tmp_path):
    def attempt(text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(BadFormat):
            load_entry(p)

    attempt("")
    attempt("expect order=6 transitive=1 solvable=1\n")
    good = save_entry(entry_sl(2, 1), tmp_path / "good.txt")
    attempt(good.replace("expect order=6", "expect order=six"))
    attempt(good.replace(" solvable=1", ""))
    attempt(good.replace("solvable=1", "solvable=2"))
    attempt(good.rsplit("expect", 1)[0])
    attempt(good + "field 1 poly=0x3\n")
    attempt(good.replace("dim 2 2", "dim 2 -2", 1))
    attempt(good.replace("dim 2 2", "dim -2 2", 1))


def test_trailer_refuses_a_repeated_field(tmp_path):
    # a repeat would otherwise override silently: order=360 then order=720
    # used to read as order 720
    with pytest.raises(BadFormat, match="given twice"):
        _parse_trailer("expect order=360 order=720 transitive=1 solvable=0")
    good = save_entry(entry_sl(2, 1), tmp_path / "good.txt")
    p = tmp_path / "twice.txt"
    p.write_text(good.replace("transitive=1", "transitive=1 transitive=1"))
    with pytest.raises(BadFormat, match="given twice"):
        load_entry(p)


def test_shipped_sporadics_verify():
    half_factorials = {"a6": math.factorial(6) // 2, "a7": math.factorial(7) // 2}
    for name, info in SPORADICS.items():
        entry = load_entry(entry_path(name))
        assert entry.n == info["n"]
        assert entry.expected["order"] == info["order"]
        assert entry.expected["class"] == "ii"
        assert entry.provenance["seed"] == 1
        if name in half_factorials:
            assert entry.expected["order"] == half_factorials[name]
        assert verify_entry(entry)["passed"]
    assert SPORADICS["sp4_2"]["order"] == sp_order(2, 2)
    assert SPORADICS["psu3_3"]["order"] == 27 * 8 * 28
    assert SPORADICS["g2_2"]["order"] == 2 * SPORADICS["psu3_3"]["order"]


def test_g2_2_transitive_on_63():
    entry = load_entry(entry_path("g2_2"))
    assert len(orbit(entry.point_perms(), 1, 64)) == 63


def test_discovery_reproduces_shipped_files(tmp_path):
    for name in SPORADICS:
        shipped = entry_path(name).read_text()
        seed = load_entry(entry_path(name)).provenance["seed"]
        entry = discover_entry(name, seed=seed, data_dir=tmp_path)
        assert entry.verified
        assert entry_path(name, tmp_path).read_text() == shipped


def test_discovery_write_flag(tmp_path):
    entry = discover_entry("a6", seed=1, data_dir=tmp_path, write=False)
    assert entry.verified
    assert not entry_path("a6", tmp_path).exists()


def test_discovery_budget_exhausted():
    with pytest.raises(NotFound):
        discover_entry("a6", seed=1, budget=0, write=False)


def test_discovery_unknown_target():
    with pytest.raises(Unsupported):
        discover_entry("m11", seed=1, write=False)


def test_tampered_file_reports_mismatch(tmp_path):
    lines = entry_path("a6").read_text().splitlines()
    payload = next(
        i + 1 for i, ln in enumerate(lines) if ln.startswith("dim")
    )
    width = len(lines[payload])
    tampered = None
    for bit in range(4):
        flipped = int(lines[payload], 16) ^ (1 << bit)
        cand = list(lines)
        cand[payload] = format(flipped, f"0{width}x")
        p = tmp_path / "a6.txt"
        p.write_text("\n".join(cand) + "\n")
        try:
            tampered = load_entry(p)
            break
        except SingularMatrix:
            continue
    assert tampered is not None
    report = verify_entry(tampered)
    assert report["passed"] is False
    assert tampered.verified is False


def test_data_directory_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("SUZUKI2_DATA", str(tmp_path))
    assert data_directory() == tmp_path
    assert entry_path("a6") == tmp_path / "a6.txt"
    monkeypatch.delenv("SUZUKI2_DATA")
    assert entry_path("a6").parent.name == "data"


def test_load_entry_skips_comments_between_blocks(tmp_path):
    good = save_entry(entry_sl(2, 1), tmp_path / "good.txt")
    head, trailer = good.split("expect", 1)
    blocks = head.replace("field", "\n# between blocks\nfield")
    p = tmp_path / "commented.txt"
    p.write_text(blocks + "expect" + trailer + "\n# after the trailer\n")
    assert load_entry(p).generators == load_entry(tmp_path / "good.txt").generators
    p.write_text(blocks + "expect" + trailer + "field 1 poly=0x3\n")
    with pytest.raises(BadFormat) as info:
        load_entry(p)
    assert str(info.value) == "content after the expect trailer"
