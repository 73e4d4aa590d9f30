"""Scenario reports: every claim re-derived mechanically, then judged.

A report is a plain dict {scenario, params, verdict, claims, seeds}; each
claim carries {id, statement, expected, computed, status}. Statuses:

  pass / fail       computed compared against expected
  unknown           an isomorphism test came back undecided
  recorded          informational value, never blocks the verdict
  trusted-citation  a proof step resting on cited literature, marked so
                    the trust boundary is visible; never blocks

The verdict is fail if any claim failed, else unknown if any claim is
undecided, else pass. Reports are deterministic: the same scenario with
the same params produces byte-identical JSON, so timing lives only in the
run_all TSV summary, never inside report JSON.
"""

import hashlib
import json
import time
from concurrent.futures import ThreadPoolExecutor
from math import comb
from pathlib import Path

from . import __version__

from .automorphisms import (
    aut_group_order,
    brute_force_aut,
    find_isomorphism,
    fusion_classes,
    is_at_group,
    isomorphism_from_labels,
    known_aut_generators,
    verify_lemma31,
)
from .catalog import (
    SPORADICS,
    entry_path,
    entry_sp4,
    load_entry,
    sl_natural_module,
    sp4_natural_module,
    verify_entry,
)
from .constructions import (
    build_b2,
    build_family,
    build_generalized_quaternion,
    build_homocyclic,
    build_p_epsilon,
    check_p_epsilon_presentation,
    p_epsilon_tables,
)
from .errors import (
    BadFormat,
    NotAHomomorphism,
    NotBijective,
    NotFound,
    ToolkitError,
    Unsupported,
)
from .linalg import Matrix, Subspace
from .permgrp import compose, identity_perm, invert, orbit, orbits, schreier_generator_words
from .repmod import (
    UNKNOWN,
    decompose_lemma22,
    dual,
    exterior_square,
    is_irreducible,
    is_isomorphic,
    is_trivial_action,
    point_permutations,
    quotient_module,
    restrict_scalars,
    submodule_lattice,
    submodule_module,
    written_over_subfield,
)


def _norm(value):
    if isinstance(value, (tuple, list)):
        return [_norm(x) for x in value]
    return value


def _claim(cid, statement, expected, computed):
    if computed is UNKNOWN:
        return {
            "id": cid,
            "statement": statement,
            "expected": _norm(expected),
            "computed": "unknown",
            "status": "unknown",
        }
    expected = _norm(expected)
    computed = _norm(computed)
    return {
        "id": cid,
        "statement": statement,
        "expected": expected,
        "computed": computed,
        "status": "pass" if computed == expected else "fail",
    }


def _recorded(cid, statement, computed):
    return {
        "id": cid,
        "statement": statement,
        "expected": None,
        "computed": _norm(computed),
        "status": "recorded",
    }


def _trusted(cid, statement):
    return {
        "id": cid,
        "statement": statement,
        "expected": None,
        "computed": None,
        "status": "trusted-citation",
    }


def _report(scenario, params, claims, seeds=None):
    statuses = {c["status"] for c in claims}
    if "fail" in statuses:
        verdict = "fail"
    elif "unknown" in statuses:
        verdict = "unknown"
    else:
        verdict = "pass"
    return {
        "scenario": scenario,
        "params": dict(params),
        "verdict": verdict,
        "claims": claims,
        "seeds": dict(seeds or {}),
    }


def report_json(report):
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def _stabilizer_fixed_points(base_perms, base_point, other_perms, npts):
    """Fixed points on the second action of the first action's stabilizer.

    Schreier generator words computed on the first action are replayed on
    the second, which is sound because both come from the same generator
    list of the same abstract group.
    """
    stab = []
    for wb, k, wbg in schreier_generator_words(base_perms, base_point, npts):
        p = identity_perm(npts)
        for i in wb:
            p = compose(p, other_perms[i])
        p = compose(p, other_perms[k])
        q = identity_perm(npts)
        for i in wbg:
            q = compose(q, other_perms[i])
        stab.append(compose(p, invert(q)))
    return [w for w in range(1, npts) if all(s[w] == w for s in stab)]


def run_theorem_dual(n):
    """Dual-module shape of the center action for the two desk instances."""
    if n not in (3, 6):
        raise Unsupported(f"desk instances are n = 3 and n = 6, got {n}")
    f = n // 3
    u = sl_natural_module(3, f)
    npts = 1 << n
    claims = []
    if n == 3:
        v = u
        m = dual(v)
        claims.append(
            _claim(
                "exterior-square-is-dual",
                "the exterior square of the natural module is isomorphic to its dual",
                True,
                is_isomorphic(exterior_square(v), m),
            )
        )
        claims.append(
            _claim(
                "natural-not-self-dual",
                "the natural module itself is not isomorphic to its dual",
                False,
                is_isomorphic(v, m),
            )
        )
        vp, mp = point_permutations(v), point_permutations(m)
        claims.append(
            _claim(
                "natural-transitive",
                "the action is transitive on the nonzero vectors of the natural module",
                npts - 1,
                len(orbit(vp, 1, npts)),
            )
        )
        claims.append(
            _claim(
                "dual-transitive",
                "the action is transitive on the nonzero vectors of the dual module",
                npts - 1,
                len(orbit(mp, 1, npts)),
            )
        )
        claims.append(
            _claim(
                "stabilizer-mismatch",
                "the stabilizer of a nonzero vector fixes no nonzero dual vector",
                0,
                len(_stabilizer_fixed_points(vp, 1, mp, npts)),
            )
        )
    else:
        v = restrict_scalars(u)
        dec = decompose_lemma22(u)
        claims.append(
            _claim(
                "decomposition-found",
                "the GF(2) exterior square splits into the predicted summands",
                True,
                dec["passed"],
            )
        )
        claims.append(
            _claim(
                "summand-dims",
                "summand dimensions are f*C(3,2) and n^2/(2f)",
                [f * comb(3, 2), n * n // (2 * f)],
                dec["summand_dims"],
            )
        )
        if dec["passed"]:
            lam = exterior_square(v)
            a_mod = submodule_module(lam, dec["pieces"][0]["space"])
            claims.append(
                _claim(
                    "small-summand-is-dual",
                    "the dim-6 summand is isomorphic to the dual of the restricted module",
                    True,
                    is_isomorphic(a_mod, dual(v)),
                )
            )
            vp, ap = point_permutations(v), point_permutations(a_mod)
            claims.append(
                _claim(
                    "natural-transitive",
                    "the action is transitive on the 63 nonzero restricted vectors",
                    npts - 1,
                    len(orbit(vp, 1, npts)),
                )
            )
            claims.append(
                _claim(
                    "dual-summand-transitive",
                    "the action is transitive on the 63 nonzero vectors of the summand",
                    npts - 1,
                    len(orbit(ap, 1, npts)),
                )
            )
            claims.append(
                _claim(
                    "stabilizer-mismatch",
                    "the stabilizer of a nonzero vector fixes no nonzero summand vector",
                    0,
                    len(_stabilizer_fixed_points(vp, 1, ap, npts)),
                )
            )
    claims.append(
        _trusted(
            "dual-pairing-citation",
            "that transitivity forces the center to carry the dual module in "
            "general rests on cited literature; only the desk instances are "
            "re-derived here",
        )
    )
    return _report("theorem-dual", {"n": n}, claims, {"isomorphism": 0})


def run_small_eliminations(entry, data_dir=None):
    """Exhaustive quotient survey of the exterior square for one sporadic."""
    if entry not in SPORADICS:
        raise Unsupported(f"unknown entry {entry!r}; know {sorted(SPORADICS)}")
    path = entry_path(entry, data_dir)
    try:
        cat = load_entry(path)
    except (OSError, BadFormat) as exc:
        claims = [
            _claim(
                "data-file",
                f"entry data file {path.name} loads",
                "loaded",
                f"{type(exc).__name__}: {exc}; run `suzuki2 catalog discover {entry}`",
            )
        ]
        return _report("small-eliminations", {"entry": entry}, claims)
    rep = verify_entry(cat)
    claims = [
        _claim(
            "entry-verified",
            "stored order, transitivity and solvability match the recomputation",
            True,
            rep["passed"],
        )
    ]
    lam = exterior_square(cat.module())
    lattice = submodule_lattice(lam)
    spectrum = []
    for w in lattice:
        q = quotient_module(lam, w)
        if q.dim == 0:
            spectrum.append([0, False])
            continue
        qn = 1 << q.dim
        transitive = len(orbit(point_permutations(q), 1, qn)) == qn - 1
        spectrum.append([q.dim, transitive])
    trans_dims = sorted({d for d, t in spectrum if t})
    claims.append(
        _recorded("lattice-size", "number of submodules of the exterior square", len(lattice))
    )
    claims.append(
        _recorded(
            "quotient-spectrum",
            "(dimension, transitive-on-nonzero) for every quotient of the exterior square",
            spectrum,
        )
    )
    claims.append(
        _claim(
            "no-transitive-quotient-of-module-dim",
            f"no quotient of dimension {cat.n} acts transitively on its nonzero vectors",
            True,
            all(not t for d, t in spectrum if d == cat.n),
        )
    )
    claims.append(
        _recorded(
            "max-transitive-quotient-dim",
            "largest dimension of any transitive quotient",
            max(trans_dims, default=0),
        )
    )
    claims.append(
        _trusted(
            "candidate-list-citation",
            "the list of candidate groups at this dimension comes from the "
            "cited classification of transitive linear groups",
        )
    )
    return _report("small-eliminations", {"entry": entry}, claims)


def run_sl2_omega(f=2):
    """Orbit sizes of the quadratic-form summand exclude transitivity."""
    if f != 2:
        raise Unsupported("the desk instance is f = 2")
    u = sl_natural_module(2, f)
    n = 2 * f
    dec = decompose_lemma22(u)
    claims = [
        _claim(
            "decomposition-found",
            "the GF(2) exterior square splits into the predicted summands",
            True,
            dec["passed"],
        ),
        _claim(
            "module-dim",
            "the quadratic-form summand has dimension n^2/(2f)",
            n * n // (2 * f),
            dec["pieces"][1]["dim"],
        ),
    ]
    if dec["passed"]:
        lam = exterior_square(restrict_scalars(u))
        b_mod = submodule_module(lam, dec["pieces"][1]["space"])
        perms = point_permutations(b_mod)
        sizes = sorted(len(o) for o in orbits(perms, 1 << b_mod.dim) if 0 not in o)
        q = 1 << (f // 2)
        total = (1 << b_mod.dim) - 1
        singular = (q * q + 1) * (q - 1)
        claims.append(
            _claim(
                "orbit-sizes",
                "nonzero orbit sizes are the singular and nonsingular counts "
                "of the elliptic quadric",
                [singular, total - singular],
                sizes,
            )
        )
        claims.append(
            _claim(
                "not-transitive",
                "the summand action is not transitive on nonzero vectors",
                False,
                len(sizes) == 1,
            )
        )
        claims.append(_claim("orbit-total", "orbit sizes sum to the nonzero count", total, sum(sizes)))
    return _report("sl2-omega", {"f": f}, claims, {"isomorphism": 0})


def run_sp_lambda(f):
    """Radical structure of the exterior square for the symplectic family."""
    if f not in (1, 2):
        raise Unsupported("lattice enumeration is desk scale only for f = 1 or 2")
    entry = entry_sp4(f)
    rep = verify_entry(entry)
    claims = [
        _claim(
            "ambient-verified",
            f"the blown-up group has order {entry.expected['order']}, acts "
            "transitively and is not solvable",
            True,
            rep["passed"],
        )
    ]
    u = sp4_natural_module(f)
    lam = exterior_square(u)
    lattice = submodule_lattice(lam)
    claims.append(_recorded("lattice-dims", "dimensions of all submodules", [w.dim for w in lattice]))
    codim1 = lattice.of_dim(lam.dim - 1)
    claims.append(
        _claim("codim1-count", "exactly one submodule has codimension 1", 1, len(codim1))
    )
    if len(codim1) == 1:
        t_space = codim1[0]
        claims.append(
            _claim(
                "t-is-maximal",
                "the codimension-1 submodule is maximal",
                True,
                any(w.basis == t_space.basis for w in lattice.maximal_proper()),
            )
        )
        below = [w for w in lattice if w.dim < t_space.dim and t_space.contains_space(w)]
        max_below = [
            w
            for w in below
            if not any(
                x.dim > w.dim and x.dim < t_space.dim and x.contains_space(w)
                for x in below
            )
        ]
        claims.append(
            _claim("t0-unique-maximal", "T has a unique maximal submodule", 1, len(max_below))
        )
        if len(max_below) == 1:
            t0_space = max_below[0]
            claims.append(_claim("t0-dim", "the unique maximal submodule of T has dimension 1", 1, t0_space.dim))
            claims.append(
                _claim(
                    "t0-trivial-action",
                    "the group acts trivially on it",
                    True,
                    is_trivial_action(submodule_module(lam, t0_space)),
                )
            )
            t_mod = submodule_module(lam, t_space)
            tb = Matrix(lam.ctx, list(t_space.basis))
            t0_in_t = Subspace(
                lam.ctx, [tb.solve(vec) for vec in t0_space.basis], t_mod.dim
            )
            section = quotient_module(t_mod, t0_in_t)
            claims.append(
                _claim("section-irreducible", "T/T0 is irreducible", True, is_irreducible(section))
            )
            if f == 2:
                claims.append(
                    _claim(
                        "section-not-over-subfield",
                        "T/T0 cannot be written over the prime field",
                        False,
                        written_over_subfield(section, 1),
                    )
                )
        claims.append(
            _claim(
                "t-gf2-dim",
                "the GF(2) dimension of T is f*(C(4,2) - 1)",
                f * (comb(4, 2) - 1),
                f * t_space.dim,
            )
        )
    return _report("sp-lambda", {"f": f}, claims, {"isomorphism": 0})


def _a2_aut_order(n):
    return n * (2**n - 1) * 2 ** (n * n)


def _b2_aut_order(n):
    return 2 * n * (2 ** (2 * n) - 1) * 2 ** (2 * n * n)


_SUITE_EXPECT = {
    "a2:3:1": {"classes": [1, 7, 56], "aut": _a2_aut_order(3), "involutions": 7},
    "a2:5:1": {"classes": [1, 31, 992], "aut": _a2_aut_order(5), "involutions": 31},
    "b2:2": {"classes": [1, 3, 60], "aut": _b2_aut_order(2), "involutions": 3},
    "peps": {"classes": [1, 7, 504], "aut": 63 * 2**18, "involutions": 7},
}


def run_suzuki_suite(slow=False):
    """Positive witnesses: the special families, their fusion and uniqueness.

    With slow=True the two order-64 groups additionally get the exhaustive
    automorphism search as an independent oracle for the generated order.
    """
    claims = []
    for spec, want in _SUITE_EXPECT.items():
        pre = spec.replace(":", "-")
        g = build_family(spec)
        if spec == "peps":
            pe = g  # the default P(eps), reused for its presentation checks below
        claims.append(
            _claim(
                f"{pre}-order",
                "group order equals the total of the expected fusion class sizes",
                sum(want["classes"]),
                g.n,
            )
        )
        claims.append(_claim(f"{pre}-special", "the group is special", True, g.is_special_2group()))
        claims.append(_claim(f"{pre}-exponent", "the group has exponent 4", 4, g.exponent()))
        claims.append(
            _claim(
                f"{pre}-involutions",
                "involution count equals the nonzero center count",
                want["involutions"],
                g.involution_count(),
            )
        )
        centre = g.center()
        claims.append(
            _claim(
                f"{pre}-involutions-central",
                "every involution is central",
                True,
                all(
                    x in centre
                    for x in range(g.n)
                    if g.element_order(x) == 2
                ),
            )
        )
        auts = known_aut_generators(g)
        fp = fusion_classes(g, auts)
        claims.append(
            _claim(
                f"{pre}-fusion-classes",
                "fusion class sizes under the generated automorphisms",
                want["classes"],
                list(fp.sizes),
            )
        )
        claims.append(
            _claim(
                f"{pre}-aut-order",
                "generated automorphism group order matches the formula",
                want["aut"],
                aut_group_order(g, auts),
            )
        )
        claims.append(
            _claim(f"{pre}-at", "same-order elements fuse", True, is_at_group(g, auts))
        )
        claims.append(
            _claim(
                f"{pre}-lemma31",
                "kernel size, fusion count and commutator pairing checks all pass",
                True,
                verify_lemma31(g, auts)["all_passed"],
            )
        )
        if spec.startswith(("a2", "b2")):
            xi = next(a for a in auts if a.source == "xi")
            invs = [x for x in range(g.n) if g.element_order(x) == 2]
            claims.append(
                _claim(
                    f"{pre}-cyclic-involution-transitivity",
                    "a single cyclic automorphism is transitive on the involutions",
                    True,
                    set(orbit([xi.perm], invs[0], g.n)) == set(invs),
                )
            )
        if slow and g.n <= 64:
            claims.append(
                _claim(
                    f"{pre}-brute-aut-matches",
                    "the exhaustive automorphism search finds the same order",
                    aut_group_order(g, auts),
                    len(brute_force_aut(g)),
                )
            )

    try:
        find_isomorphism(build_b2(1), build_generalized_quaternion(8))
        q8_iso = True
    except NotFound:
        q8_iso = False
    claims.append(
        _claim(
            "b2-1-quaternion-iso",
            "the order-8 member of the second family is the quaternion group",
            True,
            q8_iso,
        )
    )

    pres = check_p_epsilon_presentation(group=pe)
    claims.append(
        _claim(
            "peps-presentation",
            "every listed presentation relation holds in the constructed group",
            [],
            [r["relation"] for r in pres["relations"] if not r["holds"]],
        )
    )
    claims.append(
        _recorded("peps-presentation-relations", "relations evaluated", len(pres["relations"]))
    )

    ctx = pe.meta["ctx"]
    eps = pe.meta["eps"]
    try:
        isomorphism_from_labels(
            build_p_epsilon(eps=ctx.pow(eps, 4)),
            pe,
            lambda lab: (ctx.mul(lab[0], eps), lab[1]),
        )
        power_iso = True
    except (NotAHomomorphism, NotBijective):
        power_iso = False
    claims.append(
        _claim(
            "peps-power-cocycle-iso",
            "the explicit basis change carries the fourth-power cocycle group "
            "onto the reference one",
            True,
            power_iso,
        )
    )
    claims.append(
        _claim(
            "peps-square-cocycle-tables",
            "presentation tables agree for eps and eps^2, which share a "
            "minimal polynomial",
            True,
            p_epsilon_tables(group=pe) == p_epsilon_tables(eps=ctx.frobenius(eps)),
        )
    )

    hc = build_homocyclic(2, 4)
    hc_auts = brute_force_aut(hc)
    claims.append(
        _claim(
            "homocyclic-aut-order",
            "the homocyclic square has the full matrix automorphism count",
            96,
            len(hc_auts),
        )
    )
    claims.append(
        _claim(
            "homocyclic-at",
            "same-order elements of the homocyclic square fuse",
            True,
            is_at_group(hc, hc_auts),
        )
    )
    claims.append(
        _claim(
            "quaternion-unique-involution",
            "the generalized quaternion group of order 16 has one involution",
            1,
            build_generalized_quaternion(16).involution_count(),
        )
    )
    claims.append(
        _trusted(
            "classification-citations",
            "the cyclic-center, free-submodule and odd-automorphism steps of "
            "the classification rest on cited literature and are not "
            "re-derived here",
        )
    )
    return _report("suzuki-suite", {"slow": slow}, claims)


SCENARIOS = {
    "theorem-dual": run_theorem_dual,
    "small-eliminations": run_small_eliminations,
    "sl2-omega": run_sl2_omega,
    "sp-lambda": run_sp_lambda,
    "suzuki-suite": run_suzuki_suite,
}

DEFAULT_PLAN = (
    ("theorem-dual", {"n": 3}),
    ("theorem-dual", {"n": 6}),
    ("small-eliminations", {"entry": "a6"}),
    ("small-eliminations", {"entry": "sp4_2"}),
    ("small-eliminations", {"entry": "a7"}),
    ("small-eliminations", {"entry": "psu3_3"}),
    ("small-eliminations", {"entry": "g2_2"}),
    ("sl2-omega", {"f": 2}),
    ("sp-lambda", {"f": 1}),
    ("sp-lambda", {"f": 2}),
    ("suzuki-suite", {}),
)


def scenario_slug(name, params):
    parts = [name]
    for k in sorted(params):
        parts.append(f"{k}-{str(params[k]).lower()}")
    return "-".join(parts)


def _run_one(name, params):
    t0 = time.perf_counter()
    try:
        report = SCENARIOS[name](**params)
    except ToolkitError as exc:
        report = _report(
            name,
            params,
            [
                _claim(
                    "scenario-error",
                    "the scenario ran to completion",
                    "completed",
                    f"{type(exc).__name__}: {exc}",
                )
            ],
        )
    elapsed_ms = int((time.perf_counter() - t0) * 1000)
    return report, elapsed_ms


def cache_key(name, params, seed):
    """Digest over scenario, canonical params, seed and package version."""
    canon = ",".join(f"{k}={params[k]}" for k in sorted(params))
    blob = f"{name}|{canon}|{seed}|{__version__}"
    return hashlib.sha256(blob.encode()).hexdigest()


def run_all(config):
    """Run the configured scenario plan; optionally write reports.

    config keys (all optional): scenarios (list of (name, params) pairs,
    default DEFAULT_PLAN), data_dir, results_dir, cache_dir, seed, slow,
    jobs. Returns a list of {report, elapsed_ms, cached} in plan order
    regardless of job count. Only pass verdicts are cached, so a failure
    caused by missing data never goes stale; the cache also assumes the
    data files themselves are unchanged.
    """
    plan = []
    for item in config.get("scenarios", DEFAULT_PLAN):
        name, params = item
        if name not in SCENARIOS:
            raise BadFormat(f"unknown scenario {name!r}; know {sorted(SCENARIOS)}")
        params = dict(params)
        if name == "small-eliminations" and config.get("data_dir"):
            params.setdefault("data_dir", config["data_dir"])
        if name == "suzuki-suite":
            params.setdefault("slow", bool(config.get("slow", False)))
        plan.append((name, params))

    cache_dir = Path(config["cache_dir"]) if config.get("cache_dir") else None
    seed = int(config.get("seed", 0))
    results = [None] * len(plan)
    misses = []
    for idx, (name, params) in enumerate(plan):
        if cache_dir is not None:
            path = cache_dir / f"{cache_key(name, params, seed)}.json"
            if path.exists():
                results[idx] = {
                    "report": json.loads(path.read_text()),
                    "elapsed_ms": 0,
                    "cached": True,
                }
                continue
        misses.append(idx)

    def execute(idx):
        report, elapsed_ms = _run_one(*plan[idx])
        return idx, report, elapsed_ms

    jobs = int(config.get("jobs", 1))
    if jobs > 1 and len(misses) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            ran = list(pool.map(execute, misses))
    else:
        ran = [execute(idx) for idx in misses]
    for idx, report, elapsed_ms in ran:
        results[idx] = {"report": report, "elapsed_ms": elapsed_ms, "cached": False}
        if cache_dir is not None and report["verdict"] == "pass":
            cache_dir.mkdir(parents=True, exist_ok=True)
            name, params = plan[idx]
            path = cache_dir / f"{cache_key(name, params, seed)}.json"
            path.write_text(report_json(report))

    results_dir = config.get("results_dir")
    if results_dir:
        out = Path(results_dir)
        out.mkdir(parents=True, exist_ok=True)
        summary = ["scenario\tparams\tverdict\telapsed_ms\tcached"]
        for res in results:
            report = res["report"]
            public = {k: v for k, v in report["params"].items() if k != "data_dir"}
            slug = scenario_slug(report["scenario"], public)
            (out / f"{slug}.json").write_text(report_json(report))
            pstr = ",".join(f"{k}={public[k]}" for k in sorted(public))
            summary.append(
                f"{report['scenario']}\t{pstr}\t{report['verdict']}"
                f"\t{res['elapsed_ms']}\t{1 if res['cached'] else 0}"
            )
        (out / "summary.tsv").write_text("\n".join(summary) + "\n")
    return results


def worst_exit(reports):
    """Exit status for a report list: fail beats unknown beats pass."""
    verdicts = {r["verdict"] for r in reports}
    if "fail" in verdicts:
        return 1
    if "unknown" in verdicts:
        return 3
    return 0
