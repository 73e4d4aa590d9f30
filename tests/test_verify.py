"""Scenario reports: verdicts, frozen claim values, determinism, run_all."""

import hashlib
import json
from pathlib import Path

import pytest

from suzuki2 import verify
from suzuki2.errors import BadFormat, Unsupported
from suzuki2.repmod import UNKNOWN


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


def test_small_eliminations_unknown_entry():
    with pytest.raises(Unsupported):
        verify.run_small_eliminations("m11")


def test_small_eliminations_missing_data(tmp_path):
    r = verify.run_small_eliminations("a6", data_dir=tmp_path)
    assert r["verdict"] == "fail"
    assert "catalog discover a6" in r["claims"][0]["computed"]


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
        "jobs": 2,
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


def test_run_all_jobs_keep_plan_order():
    cfg = {
        "scenarios": [
            ("theorem-dual", {"n": 3}),
            ("sl2-omega", {"f": 2}),
            ("sp-lambda", {"f": 1}),
        ]
    }
    serial = [r["report"] for r in verify.run_all(cfg)]
    parallel = [r["report"] for r in verify.run_all({**cfg, "jobs": 3})]
    assert parallel == serial
    assert [r["scenario"] for r in parallel] == ["theorem-dual", "sl2-omega", "sp-lambda"]


def test_cache_key_separates_runs():
    k1 = verify.cache_key("theorem-dual", {"n": 3}, 0)
    assert k1 == verify.cache_key("theorem-dual", {"n": 3}, 0)
    assert k1 != verify.cache_key("theorem-dual", {"n": 6}, 0)
    assert k1 != verify.cache_key("theorem-dual", {"n": 3}, 1)


def test_run_all_rejects_unknown_scenario():
    with pytest.raises(BadFormat):
        verify.run_all({"scenarios": [("nope", {})]})


def test_run_all_converts_scenario_errors():
    results = verify.run_all({"scenarios": [("theorem-dual", {"n": 4})]})
    report = results[0]["report"]
    assert report["verdict"] == "fail"
    assert "Unsupported" in report["claims"][0]["computed"]


def test_default_plan_covers_every_scenario():
    assert {name for name, _ in verify.DEFAULT_PLAN} == set(verify.SCENARIOS)


def test_scenario_slug():
    assert verify.scenario_slug("theorem-dual", {"n": 3}) == "theorem-dual-n-3"
    assert verify.scenario_slug("suzuki-suite", {"slow": False}) == "suzuki-suite-slow-false"
    assert verify.scenario_slug("suzuki-suite", {}) == "suzuki-suite"
