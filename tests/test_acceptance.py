"""Acceptance gate: twelve numbered criteria, one printed verdict line each.

Every expected value here is frozen; the computations are direct library
calls so a regression in any layer surfaces as a FAIL line. Run with -s
(or read captured stdout on failure) to see the per-criterion lines.
"""

from math import comb

from suzuki2 import catalog
from suzuki2.automorphisms import (
    aut_group_order,
    brute_force_aut,
    find_isomorphism,
    fusion_classes,
    is_at_group,
    known_aut_generators,
    verify_lemma31,
)
from suzuki2.constructions import build_family, check_p_epsilon_presentation
from suzuki2.permgrp import orbit, orbits
from suzuki2.repmod import (
    decompose_lemma22,
    direct_sum,
    dual,
    exterior_square,
    is_isomorphic,
    point_permutations,
    quotient_module,
    restrict_scalars,
    submodule_lattice,
    submodule_module,
    tensor,
    twist,
)
from suzuki2.verify import report_json, run_sp_lambda, run_theorem_dual


def _criterion(num, ok, text):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num} failed: {text}"


def _nonzero_orbit_sizes(module):
    perms = point_permutations(module)
    sizes = [len(o) for o in orbits(perms, 1 << module.dim) if o[0] != 0]
    return sorted(sizes)


def _transitive(module):
    npts = 1 << (module.ctx.n * module.dim)
    return len(orbit(point_permutations(module), 1, npts)) == npts - 1


def test_criterion_01_a2_order_fusion_aut():
    g = build_family("a2:3:1")
    auts = known_aut_generators(g)
    generated = aut_group_order(g, auts)
    brute = len(brute_force_aut(g))
    ok = (
        g.n == 64
        and g.is_special_2group()
        and g.exponent() == 4
        and g.involution_count() == 7
        and fusion_classes(g, auts).sizes == (1, 7, 56)
        and generated == 10752 == 2**9 * 21
        and brute == generated
    )
    _criterion(1, ok, "A2(3,1): 64/special/exp 4/7 inv, classes {1,7,56}, Aut 10752 both ways")


def test_criterion_02_b2_orders_and_q8():
    small = build_family("b2:1")
    q8 = build_family("q:8")
    find_isomorphism(small, q8)  # raises NotFound on failure
    g = build_family("b2:2")
    auts = known_aut_generators(g)
    ok = (
        g.n == 64
        and len(g.center()) == 4
        and fusion_classes(g, auts).sizes == (1, 3, 60)
        and aut_group_order(g, auts) == 15360 == 2**8 * 60
    )
    _criterion(2, ok, "B2(1) is Q8; B2(2): 64, |Z|=4, classes {1,3,60}, Aut 15360")


def test_criterion_03_p_epsilon():
    g = build_family("peps")
    center = g.center()
    involutions = [x for x in range(g.n) if g.element_order(x) == 2]
    pres = check_p_epsilon_presentation(g)
    auts = known_aut_generators(g)
    ok = (
        g.n == 512
        and len(involutions) == 7
        and all(x in center for x in involutions)
        and fusion_classes(g, auts).sizes == (1, 7, 504)
        and len(pres["relations"]) == 45
        and all(r["holds"] for r in pres["relations"])
        and pres["all_hold"]
        and aut_group_order(g, auts) == 16515072 == 2**18 * 63
    )
    _criterion(3, ok, "P(eps): 512, 7 central inv, classes {1,7,504}, 45 relations, Aut 16515072")


def test_criterion_04_dual_instance_n3():
    v = catalog.sl_natural_module(3, 1)
    m = dual(v)
    ok = (
        is_isomorphic(exterior_square(v), m) is True
        and is_isomorphic(v, m) is False
        and _transitive(v)
        and _transitive(m)
    )
    _criterion(4, ok, "n=3: ext square of SL3(2) natural is its dual; both 7-transitive; V not self-dual")


def test_criterion_05_dual_instance_n6():
    u = catalog.sl_natural_module(3, 2)
    dec = decompose_lemma22(u)
    lam = exterior_square(restrict_scalars(u))
    a_mod = submodule_module(lam, dec["pieces"][0]["space"])
    half = submodule_module(lam, dec["pieces"][1]["space"])
    doubled = is_isomorphic(
        direct_sum(half, half), restrict_scalars(tensor(u, twist(u, 1)))
    )
    ok = (
        dec["passed"]
        and dec["summand_dims"] == [6, 9]
        and lam.dim == 15
        and len(orbit(point_permutations(a_mod), 1, 64)) == 63
        and doubled is True
    )
    _criterion(5, ok, "n=6: split 6+9=15, dim-6 summand 63-transitive, doubled half matches U (x) U^phi")


def test_criterion_06_omega4_exclusion():
    dec = decompose_lemma22(catalog.sl_natural_module(2, 2))
    lam = exterior_square(restrict_scalars(catalog.sl_natural_module(2, 2)))
    b1 = submodule_module(lam, dec["pieces"][1]["space"])
    ok = b1.dim == 4 and _nonzero_orbit_sizes(b1) == [5, 10]
    _criterion(6, ok, "SL2(4) dim-4 summand has orbit sizes {5,10}, never transitive")


def test_criterion_07_small_eliminations(tmp_path):
    bad = []
    for name in sorted(catalog.SPORADICS):
        cat = catalog.load_entry(catalog.entry_path(name))
        if not catalog.verify_entry(cat)["passed"]:
            bad.append(f"{name} entry")
            continue
        lam = exterior_square(cat.module())
        for w in submodule_lattice(lam):
            q = quotient_module(lam, w)
            if q.dim == cat.n and _transitive(q):
                bad.append(f"{name} dim-{q.dim} quotient")
    for name in ("a6", "sp4_2"):
        shipped = catalog.entry_path(name).read_text()
        seed = catalog.load_entry(catalog.entry_path(name)).provenance["seed"]
        redone = catalog.discover_entry(name, seed=seed, write=False)
        if catalog.save_entry(redone, tmp_path / f"{name}.txt") != shipped:
            bad.append(f"{name} rediscovery")
    _criterion(7, not bad, f"five sporadics verified, no transitive dim-n quotient, n=4 entries rediscovered {bad or ''}")


def test_criterion_08_lemma31_suite():
    failed = []
    for spec in ("a2:3:1", "b2:2", "peps"):
        rep = verify_lemma31(build_family(spec))
        if not rep["all_passed"]:
            failed.append(spec)
        names = {c["name"] for c in rep["checks"]}
        for needed in (
            "central_kernel_order",
            "fusion_orbit_formula",
            "commutator_map_equivariant",
            "commutator_map_surjective",
        ):
            if needed not in names:
                failed.append(f"{spec}:{needed}")
    _criterion(8, not failed, f"kernel order, fusion count, commutator surjection on all three families {failed or ''}")


def test_criterion_09_catalog_orders():
    bad = []
    for n in range(2, 11):
        if not catalog.verify_entry(catalog.entry_gamma_l1(n))["passed"]:
            bad.append(f"gamma_l1_{n}")
    for entry, want in (
        (catalog.entry_sl(3, 1), 168),
        (catalog.entry_sl(2, 2), 60),
        (catalog.entry_sp4(1), 720),
        (catalog.entry_sp4(2), 979200),
    ):
        if entry.expected["order"] != want or not catalog.verify_entry(entry)["passed"]:
            bad.append(entry.name)
    _criterion(9, not bad, f"gamma_l1 2..10 and SL3(2)/SL2(4)/Sp4(2)/Sp4(4) orders via stabilizer chains {bad or ''}")


def test_criterion_10_sp_lambda():
    bad = []
    for f, gf2dim in ((1, 5), (2, 10)):
        report = run_sp_lambda(f)
        claims = {c["id"]: c for c in report["claims"]}
        if report["verdict"] != "pass":
            bad.append(f"f={f} verdict {report['verdict']}")
        if claims["codim1-count"]["computed"] != 1:
            bad.append(f"f={f} codim1")
        if claims["t0-unique-maximal"]["computed"] != 1:
            bad.append(f"f={f} t0")
        if claims["section-irreducible"]["computed"] is not True:
            bad.append(f"f={f} section")
        if claims["t-gf2-dim"]["computed"] != gf2dim == f * (comb(4, 2) - 1):
            bad.append(f"f={f} dim")
    _criterion(10, not bad, f"Sp4 lemma: unique codim-1 T, unique trivial maximal T0, T/T0 irreducible, dims 5/10 {bad or ''}")


def test_criterion_11_homocyclic_quaternion():
    hc = build_family("hc:2:4")
    q16 = build_family("q:16")
    ok = is_at_group(hc, brute_force_aut(hc)) and q16.involution_count() == 1
    _criterion(11, ok, "Z4 x Z4 is AT under its full automorphism group; Q16 has one involution")


def test_criterion_12_determinism():
    pairs = [
        (report_json(run_theorem_dual(3)), report_json(run_theorem_dual(3))),
        (report_json(run_sp_lambda(1)), report_json(run_sp_lambda(1))),
    ]
    ok = all(a.encode() == b.encode() for a, b in pairs)
    _criterion(12, ok, "re-running scenarios with identical seeds gives byte-identical reports")
