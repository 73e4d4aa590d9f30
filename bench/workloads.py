"""The operations of each workload, as run inside one fresh interpreter.

An operation has a timed part, run(), that calls the program's public
functions, and an untimed part, judge(), that turns the output into the
canonical bytes compared across repetitions and checks it against values
computed in checks.py. negatives() feeds the same checks outputs corrupted
with the run's random generator and returns every corruption a check
failed to reject, so a check that cannot fail shows as a broken benchmark.
"""

import contextlib
import hashlib
import io
import json
import shutil
from pathlib import Path

import checks
from suzuki2 import automorphisms, catalog, cli, constructions, repmod, verify

REFERENCE = json.loads((Path(__file__).with_name("reference_reports.json")).read_text())

# the default plan minus suzuki-suite, as (scenario, params, report slug)
MODULE_SCENARIOS = (
    ("theorem-dual", {"n": 3}, "theorem-dual-n-3"),
    ("theorem-dual", {"n": 6}, "theorem-dual-n-6"),
    ("small-eliminations", {"entry": "a6"}, "small-eliminations-entry-a6"),
    ("small-eliminations", {"entry": "sp4_2"}, "small-eliminations-entry-sp4_2"),
    ("small-eliminations", {"entry": "a7"}, "small-eliminations-entry-a7"),
    ("small-eliminations", {"entry": "psu3_3"}, "small-eliminations-entry-psu3_3"),
    ("small-eliminations", {"entry": "g2_2"}, "small-eliminations-entry-g2_2"),
    ("sl2-omega", {"f": 2}, "sl2-omega-f-2"),
    ("sp-lambda", {"f": 1}, "sp-lambda-f-1"),
    ("sp-lambda", {"f": 2}, "sp-lambda-f-2"),
)
CATALOG_ENTRIES = ("sl:4:1", "sl:2:5", "gamma_l1:10", "a6", "sp4_2", "a7", "psu3_3", "g2_2")
BRUTE_GROUPS = ("a2:3:1", "b2:2", "q:64", "hc:2:4")


def digest(data):
    return hashlib.sha256(data).hexdigest()


def catalog_entry(name):
    """The catalog entry a family specifier or sporadic name denotes."""
    family, _, rest = name.partition(":")
    args = [int(a) for a in rest.split(":")] if rest else []
    if family == "sl":
        return catalog.entry_sl(*args)
    if family == "gamma_l1":
        return catalog.entry_gamma_l1(*args)
    return catalog.load_entry(catalog.entry_path(name))


class VerifyAll:
    """`suzuki2 verify all --out DIR`: the default plan through the CLI."""

    name = "verify-all"

    def __init__(self, scratch):
        self.out = Path(scratch) / "reports"

    def run(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(["verify", "all", "--out", str(self.out)])
        return code, text.getvalue()

    def _reports(self):
        raw = {p.stem: p.read_bytes() for p in sorted(self.out.glob("*.json"))}
        return raw, {slug: json.loads(b) for slug, b in raw.items()}

    def judge(self, output):
        code, _ = output
        raw, reports = self._reports()
        digests = {slug: digest(b) for slug, b in raw.items()}
        problems = checks.check_default_plan(code, reports, digests, REFERENCE)
        return b"".join(slug.encode() + b"\n" + raw[slug] for slug in raw), problems

    def negatives(self, output, rng):
        code, _ = output
        raw, reports = self._reports()
        digests = {slug: digest(b) for slug, b in raw.items()}
        missed = []
        slug = rng.choice(sorted(reports))
        flipped = dict(reports, **{slug: dict(reports[slug], verdict="fail")})
        if not checks.check_default_plan(code, flipped, digests, REFERENCE):
            missed.append(f"verdict of {slug} flipped to fail")
        claims = reports[slug]["claims"]
        dropped_id = claims[rng.randrange(len(claims))]["id"]
        cut = dict(reports[slug], claims=[c for c in claims if c["id"] != dropped_id])
        cut_digests = dict(digests, **{slug: digest(verify.report_json(cut).encode())})
        if not checks.check_default_plan(code, dict(reports, **{slug: cut}), cut_digests, REFERENCE):
            missed.append(f"claim {dropped_id} dropped from {slug}")
        return missed


class Scenario:
    """One default-plan scenario through verify.run_all."""

    def __init__(self, scenario, params, slug):
        self.scenario, self.params, self.slug = scenario, params, slug
        self.name = f"scenario:{slug}"

    def run(self):
        return verify.run_all({"scenarios": [(self.scenario, self.params)]})[0]["report"]

    def judge(self, report):
        data = verify.report_json(report).encode()
        problems = checks.check_report(self.slug, report)
        problems += checks.check_digest(self.slug, digest(data), REFERENCE)
        return data, problems

    def negatives(self, report, rng):
        if checks.check_report(self.slug, dict(report, verdict="fail")):
            return []
        return [f"verdict of {self.slug} flipped to fail"]


class VerifyEntry:
    """catalog.verify_entry: order, transitivity and solvability recomputed."""

    def __init__(self, entry):
        self.entry = entry
        self.name = f"verify_entry:{entry}"

    def run(self):
        return catalog.verify_entry(catalog_entry(self.entry))

    def judge(self, result):
        return json.dumps(result, sort_keys=True).encode(), checks.check_entry(self.entry, result)

    def negatives(self, result, rng):
        bumped = json.loads(json.dumps(result))
        for c in bumped["checks"]:
            if c["name"] == "order":
                c["computed"] += rng.choice((-1, 1))
        if checks.check_entry(self.entry, bumped):
            return []
        return [f"{self.entry} order off by one"]


class Lemma22:
    """repmod.decompose_lemma22 on the natural SL2(8) module."""

    name = "decompose_lemma22:sl2-8"
    D, F = 2, 3

    def run(self):
        return repmod.decompose_lemma22(catalog.sl_natural_module(self.D, self.F))

    def judge(self, result):
        pieces = [
            [p["name"], p["dim"], p["candidates"], None if p["space"] is None else p["space"].basis]
            for p in result["pieces"]
        ]
        canon = {k: v for k, v in result.items() if k != "pieces"}
        data = json.dumps([canon, pieces], sort_keys=True).encode()
        return data, checks.check_decomposition(result, self.D, self.F)

    def negatives(self, result, rng):
        dims = list(result["summand_dims"])
        dims[rng.randrange(len(dims))] += 1
        if checks.check_decomposition(dict(result, summand_dims=dims), self.D, self.F):
            return []
        return ["summand dimension off by one"]


def _swapped(maps, rng):
    i, j = rng.sample(range(1, len(maps)), 2)
    return checks.swap_images(maps, i, j)


class BruteAut:
    """automorphisms.brute_force_aut: every automorphism by exhaustive search."""

    def __init__(self, spec):
        self.spec = spec
        self.name = f"brute_force_aut:{spec}"

    def run(self):
        group = constructions.build_family(self.spec)
        return group, [a.perm for a in automorphisms.brute_force_aut(group)]

    def judge(self, output):
        group, maps = output
        data = json.dumps(sorted(maps)).encode()
        return data, checks.check_automorphisms(self.spec, group.mul, group.gens, maps)

    def negatives(self, output, rng):
        group, maps = output
        bad = _swapped(maps[rng.randrange(len(maps))], rng)
        if checks.product_breaks(group.mul, group.mul, bad, group.gens) is not None:
            return []
        return [f"{self.spec}: swapped images accepted"]


class QuaternionIso:
    """automorphisms.find_isomorphism from B2(1) onto the quaternion group Q8."""

    name = "find_isomorphism:b2:1-q:8"

    def run(self):
        src = constructions.build_b2(1)
        dst = constructions.build_generalized_quaternion(8)
        return src, dst, automorphisms.find_isomorphism(src, dst)

    def judge(self, output):
        src, dst, maps = output
        return json.dumps(list(maps)).encode(), checks.check_isomorphism(src.mul, dst.mul, maps)

    def negatives(self, output, rng):
        src, dst, maps = output
        if checks.check_isomorphism(src.mul, dst.mul, _swapped(maps, rng)):
            return []
        return ["Q8 isomorphism with swapped images accepted"]


def operations(workload, scratch):
    """The operations of one repetition, before the seed orders them."""
    if workload == "verify-default":
        return [VerifyAll(scratch)]
    if workload == "catalog-modules":
        return (
            [Scenario(*s) for s in MODULE_SCENARIOS]
            + [Lemma22()]
            + [VerifyEntry(e) for e in CATALOG_ENTRIES]
        )
    if workload == "brute-oracle":
        return [BruteAut(s) for s in BRUTE_GROUPS] + [QuaternionIso()]
    raise ValueError(f"unknown workload {workload!r}")

