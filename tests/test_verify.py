"""Scenario reports: verdicts, frozen claim values, determinism, run_all."""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from suzuki2 import verify
from suzuki2.catalog import data_directory, entry_path, load_entry, sp4_natural_module
from suzuki2.errors import BadFormat, Unsupported
from suzuki2.groups import FiniteGroup
from suzuki2.linalg import Matrix, Subspace
from suzuki2.permgrp import orbit
from suzuki2.repmod import (
    UNKNOWN,
    exterior_square,
    point_permutations,
    quotient_module,
    submodule_lattice,
    submodule_module,
)


def by_id(report):
    return {c["id"]: c for c in report["claims"]}


def test_theorem_dual_n3():
    r = verify.run_theorem_dual(3)
    assert r["verdict"] == "pass"
    assert r["params"] == {"n": 3}
    c = by_id(r)
    assert c["exterior-square-is-dual"]["computed"] is True
    assert c["natural-not-self-dual"]["computed"] is False
    assert c["natural-not-self-dual"]["status"] == "pass"
    assert c["natural-transitive"]["computed"] == 7
    assert c["dual-transitive"]["computed"] == 7
    assert c["stabilizer-mismatch"]["computed"] == 0
    cited = c["dual-pairing-citation"]
    assert cited["status"] == "trusted-citation"
    assert cited["expected"] is None and cited["computed"] is None


def test_theorem_dual_n6():
    r = verify.run_theorem_dual(6)
    assert r["verdict"] == "pass"
    c = by_id(r)
    assert c["summand-dims"]["computed"] == [6, 9]
    assert c["small-summand-is-dual"]["computed"] is True
    assert c["natural-transitive"]["computed"] == 63
    assert c["dual-summand-transitive"]["computed"] == 63
    assert c["stabilizer-mismatch"]["computed"] == 0


def test_theorem_dual_rejects_other_degrees():
    for n in (4, 9, 0):
        with pytest.raises(Unsupported):
            verify.run_theorem_dual(n)


ELIMINATION_SPECTRA = {
    "a6": [[6, False], [4, False], [2, True], [0, False]],
    "sp4_2": [[6, False], [5, False], [1, True], [0, False]],
    "a7": [[6, False], [0, False]],
    "psu3_3": [[15, False], [14, False], [1, True], [0, False]],
    "g2_2": [[15, False], [14, False], [1, True], [0, False]],
}


def test_small_eliminations_all_entries():
    for name, spectrum in ELIMINATION_SPECTRA.items():
        r = verify.run_small_eliminations(name)
        assert r["verdict"] == "pass", name
        c = by_id(r)
        assert c["entry-verified"]["status"] == "pass"
        assert c["quotient-spectrum"]["computed"] == spectrum
        assert c["no-transitive-quotient-of-module-dim"]["computed"] is True
        expected_max = max((d for d, t in spectrum if t), default=0)
        assert c["max-transitive-quotient-dim"]["computed"] == expected_max


def every_quotient_survey(entry):
    """Oracle: test the quotient by every lattice member for transitivity,
    recording the zero quotient as untransitive."""
    lam = exterior_square(load_entry(entry_path(entry)).module())
    spectrum = []
    for w in submodule_lattice(lam):
        q = quotient_module(lam, w)
        if q.dim == 0:
            spectrum.append([0, False])
            continue
        spectrum.append([q.dim, len(orbit(point_permutations(q), 1)) == (1 << q.dim) - 1])
    return spectrum


@pytest.mark.parametrize("entry", sorted(ELIMINATION_SPECTRA))
def test_maximal_only_survey_equals_the_every_quotient_survey(entry):
    c = by_id(verify.run_small_eliminations(entry))
    assert c["quotient-spectrum"]["computed"] == every_quotient_survey(entry)


def test_small_eliminations_unknown_entry():
    with pytest.raises(Unsupported):
        verify.run_small_eliminations("m11")


def test_small_eliminations_missing_data(tmp_path):
    r = verify.run_small_eliminations("a6", data_dir=tmp_path)
    assert r["verdict"] == "fail"
    assert "catalog discover a6" in r["claims"][0]["computed"]


def corrupted_a6(tmp_path):
    """A copy of a6.txt whose first payload row is zero: a singular generator."""
    lines = (data_directory() / "a6.txt").read_text().splitlines()
    assert lines[3] == "dim 4 4"
    lines[4] = "0"
    (tmp_path / "a6.txt").write_text("\n".join(lines) + "\n")
    return tmp_path


def test_small_eliminations_corrupted_data(tmp_path):
    r = verify.run_small_eliminations("a6", data_dir=corrupted_a6(tmp_path))
    assert r["verdict"] == "fail"
    assert r["claims"][0]["id"] == "data-file"
    assert "SingularMatrix" in r["claims"][0]["computed"]
    assert "catalog discover a6" in r["claims"][0]["computed"]


def test_small_eliminations_rejects_another_entrys_file(tmp_path):
    # a6.txt under a7's name loads and verifies against its own trailer,
    # but its n and order are a6's, not the ones SPORADICS records for a7
    shutil.copy(data_directory() / "a6.txt", tmp_path / "a7.txt")
    r = verify.run_small_eliminations("a7", data_dir=tmp_path)
    assert r["verdict"] == "fail"
    assert [c["id"] for c in r["claims"]] == ["data-file"]
    claim = r["claims"][0]
    assert claim["statement"] == "entry data file a7.txt loads"
    assert claim["status"] == "fail"
    assert "{'n': 4, 'order': 360}, not a7's {'n': 4, 'order': 2520}" in claim["computed"]
    assert "catalog discover a7" in claim["computed"]


def test_sl2_omega():
    r = verify.run_sl2_omega()
    assert r["verdict"] == "pass"
    c = by_id(r)
    assert c["module-dim"]["computed"] == 4
    assert c["orbit-sizes"]["computed"] == [5, 10]
    assert c["not-transitive"]["computed"] is False
    assert c["orbit-total"]["computed"] == 15
    with pytest.raises(Unsupported):
        verify.run_sl2_omega(1)


def test_sp_lambda_structure():
    for f, gf2dim in ((1, 5), (2, 10)):
        r = verify.run_sp_lambda(f)
        assert r["verdict"] == "pass", f
        c = by_id(r)
        assert c["codim1-count"]["computed"] == 1
        assert c["t0-unique-maximal"]["computed"] == 1
        assert c["t0-dim"]["computed"] == 1
        assert c["t0-trivial-action"]["computed"] is True
        assert c["section-irreducible"]["computed"] is True
        assert c["t-gf2-dim"]["computed"] == gf2dim
        assert c["lattice-dims"]["status"] == "recorded"
    c2 = by_id(verify.run_sp_lambda(2))
    assert c2["section-not-over-subfield"]["computed"] is False
    assert c2["section-not-over-subfield"]["status"] == "pass"
    with pytest.raises(Unsupported):
        verify.run_sp_lambda(3)


@pytest.mark.parametrize("f", [1, 2])
def test_t_own_maximal_submodules_equal_the_scan_below_t(f):
    # oracle: the members of the exterior square's lattice maximal below
    # T, carried into T's coordinates by solving against T's basis
    lam = exterior_square(sp4_natural_module(f))
    lattice = submodule_lattice(lam)
    (t_space,) = lattice.of_dim(lam.dim - 1)
    below = [w for w in lattice if w.dim < t_space.dim and t_space.contains_space(w)]
    max_below = [
        w
        for w in below
        if not any(x.dim > w.dim and x.contains_space(w) for x in below)
    ]
    tb = Matrix(lam.ctx, list(t_space.basis))
    in_t = [Subspace(lam.ctx, [tb.solve(v) for v in w.basis], t_space.dim) for w in max_below]
    own = submodule_lattice(submodule_module(lam, t_space)).maximal_proper()
    assert len(in_t) == len(own) == 1
    assert set(in_t) == set(own)


def test_suzuki_suite_slow():
    r = verify.run_suzuki_suite(slow=True)
    assert r["verdict"] == "pass"
    assert r["params"] == {"slow": True}
    c = by_id(r)
    assert c["a2-3-1-fusion-classes"]["computed"] == [1, 7, 56]
    assert c["a2-3-1-aut-order"]["computed"] == 10752
    assert c["a2-3-1-brute-aut-matches"]["computed"] == 10752
    assert c["a2-5-1-fusion-classes"]["computed"] == [1, 31, 992]
    assert c["a2-5-1-aut-order"]["computed"] == 5 * 31 * 2**25
    assert "a2-5-1-brute-aut-matches" not in c
    assert c["b2-2-fusion-classes"]["computed"] == [1, 3, 60]
    assert c["b2-2-aut-order"]["computed"] == 15360
    assert c["b2-2-brute-aut-matches"]["computed"] == 15360
    assert c["peps-fusion-classes"]["computed"] == [1, 7, 504]
    assert c["peps-aut-order"]["computed"] == 16515072
    for pre in ("a2-3-1", "a2-5-1", "b2-2", "peps"):
        assert c[f"{pre}-at"]["computed"] is True
        assert c[f"{pre}-lemma31"]["computed"] is True
        assert c[f"{pre}-involutions-central"]["computed"] is True
        assert c[f"{pre}-exponent"]["computed"] == 4
    for pre in ("a2-3-1", "a2-5-1", "b2-2"):
        assert c[f"{pre}-cyclic-involution-transitivity"]["computed"] is True
    assert "peps-cyclic-involution-transitivity" not in c
    assert c["b2-1-quaternion-iso"]["computed"] is True
    assert c["peps-presentation"]["computed"] == []
    assert c["peps-presentation-relations"]["computed"] == 45
    assert c["peps-power-cocycle-iso"]["computed"] is True
    assert c["peps-square-cocycle-tables"]["computed"] is True
    assert c["homocyclic-aut-order"]["computed"] == 96
    assert c["homocyclic-at"]["computed"] is True
    assert c["quaternion-unique-involution"]["computed"] == 1
    assert c["classification-citations"]["status"] == "trusted-citation"


def test_suite_builds_each_special_structure_once(monkeypatch):
    # each family's group computes its structure on first use and every
    # later reader (the -special claim, the central maps, the exact
    # sequence, Lemma 3.1) gets the cached one
    built = []
    real = FiniteGroup._special_structure

    def counting(group):
        built.append(group.n)
        return real(group)

    monkeypatch.setattr(FiniteGroup, "_special_structure", counting)
    assert verify.run_suzuki_suite()["verdict"] == "pass"
    assert built == [64, 1024, 64, 512]


def test_reports_byte_identical():
    for make in (
        lambda: verify.run_theorem_dual(3),
        lambda: verify.run_sp_lambda(1),
    ):
        assert verify.report_json(make()) == verify.report_json(make())


# SHA-256 of each default-plan report, pinned with the benchmark
REFERENCE_DIGESTS = Path(__file__).resolve().parents[1] / "bench" / "reference_reports.json"


def test_default_plan_reports_match_pinned_digests(tmp_path):
    # two runs of one build agree even when a change alters a report for
    # good; the pinned digests catch that
    want = json.loads(REFERENCE_DIGESTS.read_text())
    assert len(want) == 11
    verify.run_all({"results_dir": tmp_path})
    got = {p.stem: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.glob("*.json")}
    assert got == want


def test_default_plan_reports_do_not_depend_on_the_hash_seed(tmp_path):
    # set and dict order must never reach a report; summary.tsv holds
    # timings and is left out
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    trees = []
    for seed in ("0", "12345"):
        out = tmp_path / seed
        subprocess.run(
            [sys.executable, "-m", "suzuki2.cli", "verify", "all", "--out", str(out)],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
            capture_output=True,
            check=True,
        )
        trees.append({p.name: p.read_bytes() for p in out.glob("*.json")})
    assert len(trees[0]) == 11
    assert trees[0] == trees[1]


def test_unknown_claim_propagates():
    claim = verify._claim("probe", "undecided comparison", True, UNKNOWN)
    assert claim["status"] == "unknown"
    assert claim["computed"] == "unknown"
    report = verify._report("probe-scenario", {}, [claim])
    assert report["verdict"] == "unknown"
    assert verify.worst_exit([report]) == 3


def test_worst_exit_precedence():
    mk = lambda v: {"verdict": v}
    assert verify.worst_exit([mk("pass"), mk("pass")]) == 0
    assert verify.worst_exit([mk("pass"), mk("unknown")]) == 3
    assert verify.worst_exit([mk("unknown"), mk("fail")]) == 1


def test_run_all_writes_reports(tmp_path):
    cfg = {
        "scenarios": [("theorem-dual", {"n": 3}), ("sl2-omega", {"f": 2})],
        "results_dir": tmp_path,
    }
    results = verify.run_all(cfg)
    assert [r["report"]["scenario"] for r in results] == ["theorem-dual", "sl2-omega"]
    assert all(r["report"]["verdict"] == "pass" for r in results)
    assert all(r["cached"] is False for r in results)
    files = sorted(p.name for p in Path(tmp_path).iterdir())
    assert files == ["sl2-omega-f-2.json", "summary.tsv", "theorem-dual-n-3.json"]
    loaded = json.loads((tmp_path / "theorem-dual-n-3.json").read_text())
    assert loaded["verdict"] == "pass"
    lines = (tmp_path / "summary.tsv").read_text().splitlines()
    assert lines[0] == "scenario\tparams\tverdict\telapsed_ms\tcached"
    assert lines[1].startswith("theorem-dual\tn=3\tpass\t")
    assert len(lines) == 3


def test_run_all_cache_round_trip(tmp_path):
    cfg = {
        "scenarios": [("theorem-dual", {"n": 3})],
        "cache_dir": tmp_path / "cache",
    }
    first = verify.run_all(cfg)
    assert first[0]["cached"] is False
    second = verify.run_all(cfg)
    assert second[0]["cached"] is True
    assert second[0]["report"] == first[0]["report"]
    # a failing scenario is never cached
    bad = {"scenarios": [("theorem-dual", {"n": 4})], "cache_dir": tmp_path / "cache"}
    assert verify.run_all(bad)[0]["report"]["verdict"] == "fail"
    assert verify.run_all(bad)[0]["cached"] is False


def test_cache_misses_after_a_data_file_changes(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_directory(), data)
    cfg = {
        "scenarios": [("small-eliminations", {"entry": "a6"})],
        "data_dir": str(data),
        "cache_dir": tmp_path / "cache",
    }
    first = verify.run_all(cfg)
    assert first[0]["report"]["verdict"] == "pass"
    assert verify.run_all(cfg)[0]["cached"] is True
    # one byte of the leading comment: the entry still loads and passes,
    # so only the key can tell this run from the cached one
    path = data / "a6.txt"
    text = path.read_bytes()
    assert text.startswith(b"# a6:")
    path.write_bytes(b"#!a6:" + text[5:])
    again = verify.run_all(cfg)
    assert again[0]["cached"] is False
    assert again[0]["report"] == first[0]["report"]
    assert verify.run_all(cfg)[0]["cached"] is True


def test_source_digest_covers_the_data_files(tmp_path):
    data = tmp_path / "data"
    shutil.copytree(data_directory(), data)
    before = verify.source_digest(data)
    assert before == verify.source_digest(data)
    assert before == verify.source_digest(data_directory())
    (data / "extra.txt").write_text("")
    assert verify.source_digest(data) != before


def test_run_all_digests_the_sources_once_per_data_directory(tmp_path, monkeypatch):
    calls = []
    digest = verify.source_digest
    monkeypatch.setattr(verify, "source_digest", lambda d=None: calls.append(d) or digest(d))
    # a stub run keeps the test to the cache keys
    monkeypatch.setattr(
        verify, "_run_one", lambda name, params, settings: (verify._report(name, params, []), 0)
    )
    verify.run_all({"cache_dir": tmp_path / "cache"})
    assert calls == [None]
    calls.clear()
    data = str(data_directory())
    verify.run_all({"cache_dir": tmp_path / "cache", "data_dir": data})
    assert calls == [None, data]


def test_run_all_refuses_a_slow_that_is_not_true_or_false(tmp_path):
    # "false" is a truthy string: coerced, it would run the slow suite
    for slow in ("false", 0, None):
        with pytest.raises(BadFormat, match="slow must be true or false"):
            verify.run_all(
                {"slow": slow, "scenarios": [("suzuki-suite", {})], "results_dir": tmp_path}
            )
    assert not any(tmp_path.iterdir())


def test_run_all_refuses_a_run_setting_no_scenario_takes(tmp_path):
    for setting, plan in (
        ({"slow": True}, [("sp-lambda", {"f": 1})]),
        # the scenario line's own slow wins, so the setting is never read
        ({"slow": False}, [("suzuki-suite", {"slow": True})]),
        ({"data_dir": str(tmp_path)}, [("theorem-dual", {"n": 3}), ("sl2-omega", {})]),
    ):
        with pytest.raises(BadFormat, match="no scenario in the plan takes"):
            verify.run_all({**setting, "scenarios": plan, "results_dir": tmp_path / "out"})
    assert not any(tmp_path.iterdir())


def test_run_all_rejects_jobs_and_seed():
    # neither knob changes a run, so neither is accepted and ignored
    for key in ("jobs", "seed", "budget"):
        with pytest.raises(BadFormat, match=key):
            verify.run_all({"scenarios": [("theorem-dual", {"n": 3})], key: 1})


def test_cache_key_separates_runs():
    k1 = verify.cache_key("theorem-dual", {"n": 3})
    assert k1 == verify.cache_key("theorem-dual", {"n": 3})
    assert k1 != verify.cache_key("theorem-dual", {"n": 6})
    assert k1 != verify.cache_key("sl2-omega", {"n": 3})
    assert k1 != verify.cache_key("theorem-dual", {"n": 3}, "digest")


def test_run_all_rejects_unknown_scenario():
    with pytest.raises(BadFormat):
        verify.run_all({"scenarios": [("nope", {})]})


def test_run_all_checks_params_before_running(tmp_path):
    cfg = {"cache_dir": tmp_path / "cache", "results_dir": tmp_path / "out"}
    for plan in ([("theorem-dual", {})], [("theorem-dual", {"n": 3}), ("theorem-dual", {})]):
        with pytest.raises(BadFormat, match="missing n"):
            verify.run_all({**cfg, "scenarios": plan})
    with pytest.raises(BadFormat, match="unknown bogus"):
        verify.run_all({**cfg, "scenarios": [("sl2-omega", {"bogus": 1})]})
    with pytest.raises(BadFormat, match="data_dir key"):
        verify.run_all({**cfg, "scenarios": [("small-eliminations", {"entry": "a6", "data_dir": "/x"})]})
    assert list(tmp_path.iterdir()) == []


def test_params_are_checked_against_the_unwrapped_scenario(monkeypatch):
    # a *args, **kwargs wrapper (bench/tracer.py installs one) hides the
    # signature; run_all reads it from the function as defined
    fn = verify.SCENARIOS["theorem-dual"]
    monkeypatch.setitem(verify.SCENARIOS, "theorem-dual", lambda *a, **k: fn(*a, **k))
    results = verify.run_all({"scenarios": [("theorem-dual", {"n": 3})]})
    assert results[0]["report"]["verdict"] == "pass"
    with pytest.raises(BadFormat, match="takes --n"):
        verify.run_all({"scenarios": [("theorem-dual", {})]})


def test_cache_key_does_not_depend_on_the_data_dir_path(tmp_path):
    # equal bytes give equal reports, so they share one cache entry
    one, two = tmp_path / "one", tmp_path / "two"
    shutil.copytree(data_directory(), one)
    shutil.copytree(data_directory(), two)
    cfg = {"scenarios": [("small-eliminations", {"entry": "a6"})], "cache_dir": tmp_path / "cache"}
    first = verify.run_all({**cfg, "data_dir": str(one)})[0]
    assert first["cached"] is False
    second = verify.run_all({**cfg, "data_dir": str(two)})[0]
    assert second["cached"] is True
    assert second["report"] == first["report"]


def test_run_all_converts_scenario_errors():
    results = verify.run_all({"scenarios": [("theorem-dual", {"n": 4})]})
    report = results[0]["report"]
    assert report["verdict"] == "fail"
    assert "Unsupported" in report["claims"][0]["computed"]


def test_default_plan_covers_every_scenario():
    assert {name for name, _ in verify.DEFAULT_PLAN} == set(verify.SCENARIOS)


def test_param_string():
    assert verify.param_string({"params": {"entry": "a6"}}) == "entry=a6"
    assert verify.param_string({"params": {"slow": False, "n": 3}}) == "n=3,slow=False"
    assert verify.param_string({"params": {}}) == ""


def test_scenario_slug():
    assert verify.scenario_slug("theorem-dual", {"n": 3}) == "theorem-dual-n-3"
    assert verify.scenario_slug("suzuki-suite", {"slow": False}) == "suzuki-suite-slow-false"
    assert verify.scenario_slug("suzuki-suite", {}) == "suzuki-suite"
