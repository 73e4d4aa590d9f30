"""Every output check of the benchmark can fail.

Each test runs a cheap operation of a workload for real, corrupts its
output the way a faulty program could, and confirms that the operation's
judge reports a problem and that the run summary counts it as failed.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def failed_count(op, output):
    """Failures the run summary counts for one repetition of op on output."""
    data, problems = op.judge(output)
    rep = {
        "ops": [{"name": op.name, "seconds": 0.1, "digest": "x", "problems": problems}],
        "missed_corruptions": [],
        "layers": None,
    }
    return run.summarize([(False, rep)], [0.1], trace=False)["failed"]


def test_outputs_pass_as_produced():
    for op in (workloads.BruteAut("hc:2:4"), workloads.QuaternionIso(),
               workloads.Scenario("sl2-omega", {"f": 2}, "sl2-omega-f-2")):
        output = op.run()
        assert failed_count(op, output) == 0
        assert op.negatives(output, random.Random(7)) == []


def test_automorphism_count_off_by_one_fails():
    op = workloads.BruteAut("hc:2:4")
    group, maps = op.run()
    assert failed_count(op, (group, maps[:-1])) == 1
    assert failed_count(op, (group, maps + [maps[-1]])) == 1


def test_automorphisms_need_generating_set():
    op = workloads.BruteAut("hc:2:4")
    group, maps = op.run()
    assert len(checks.generated(group.mul, group.gens)) == 16
    assert checks.check_automorphisms("hc:2:4", group.mul, group.gens[:1], maps)


def test_swapped_automorphism_fails():
    op = workloads.BruteAut("hc:2:4")
    group, maps = op.run()
    bad = list(maps)
    bad[5] = checks.swap_images(bad[5], 1, 2)
    assert failed_count(op, (group, bad)) == 1


def test_verdict_flipped_to_fail_fails():
    op = workloads.Scenario("sl2-omega", {"f": 2}, "sl2-omega-f-2")
    report = op.run()
    assert failed_count(op, dict(report, verdict="fail")) == 1
    claims = [dict(c) for c in report["claims"]]
    claims[0]["status"] = "fail"
    assert failed_count(op, dict(report, claims=claims)) == 1


def test_claim_dropped_from_report_fails():
    op = workloads.Scenario("sl2-omega", {"f": 2}, "sl2-omega-f-2")
    report = op.run()
    for i in range(len(report["claims"])):
        cut = dict(report, claims=report["claims"][:i] + report["claims"][i + 1:])
        assert failed_count(op, cut) == 1


def test_suite_formula_claims_are_required():
    claims = [
        {"id": f"{pre}-aut-order", "computed": aut, "status": "pass"}
        for pre, (aut, _) in checks.SUITE_AUT.items()
    ] + [
        {"id": f"{pre}-fusion-classes", "computed": fus, "status": "pass"}
        for pre, (_, fus) in checks.SUITE_AUT.items()
        if fus is not None
    ]
    slug = "suzuki-suite-slow-false"
    assert checks.check_report(slug, {"verdict": "pass", "claims": claims}) == []
    for i, claim in enumerate(claims):
        assert checks.check_report(slug, {"verdict": "pass", "claims": claims[:i] + claims[i + 1:]})
        wrong = dict(claim, computed=claim["computed"] + 1 if isinstance(claim["computed"], int)
                     else claim["computed"][:-1])
        assert checks.check_report(slug, {"verdict": "pass", "claims": claims[:i] + [wrong] + claims[i + 1:]})


def test_default_plan_needs_exit_zero_and_every_report():
    reports = {slug: {"verdict": "pass", "claims": []} for slug in checks.DEFAULT_SLUGS}
    reports["suzuki-suite-slow-false"]["claims"] = [
        {"id": f"{pre}-aut-order", "computed": aut, "status": "pass"}
        for pre, (aut, _) in checks.SUITE_AUT.items()
    ] + [
        {"id": f"{pre}-fusion-classes", "computed": fus, "status": "pass"}
        for pre, (_, fus) in checks.SUITE_AUT.items()
        if fus is not None
    ]
    digests = {slug: "d" for slug in reports}
    assert checks.check_default_plan(0, reports, digests, digests) == []
    assert checks.check_default_plan(1, reports, digests, digests)
    partial = dict(reports)
    del partial["sp-lambda-f-1"]
    assert checks.check_default_plan(0, partial, digests, digests)
    assert checks.check_default_plan(0, reports, dict(digests, **{"sl2-omega-f-2": "e"}), digests)


def test_product_breaking_map_fails_isomorphism_check():
    op = workloads.QuaternionIso()
    src, dst, maps = op.run()
    for i in range(1, 8):
        for j in range(i + 1, 8):
            assert failed_count(op, (src, dst, checks.swap_images(maps, i, j))) == 1


def test_catalog_order_off_by_one_fails():
    op = workloads.VerifyEntry("a6")
    result = op.run()
    assert failed_count(op, result) == 0
    bumped = dict(result, checks=[dict(c) for c in result["checks"]])
    for c in bumped["checks"]:
        if c["name"] == "order":
            c["computed"] += 1
    assert failed_count(op, bumped) == 1


def test_decomposition_dims_checked():
    assert checks.lemma22_dims(2, 3) == [3, 12]
    result = {"passed": True, "summand_dims": [3, 12]}
    assert checks.check_decomposition(result, 2, 3) == []
    assert checks.check_decomposition(dict(result, summand_dims=[3, 11]), 2, 3)
    assert checks.check_decomposition(dict(result, passed=False), 2, 3)


def test_classical_orders():
    assert checks.BRUTE_COUNTS == {"a2:3:1": 10752, "b2:2": 15360, "q:64": 512, "hc:2:4": 96}
    assert [checks.CLASSICAL_ORDERS[k] for k in ("sl:4:1", "sl:2:5", "gamma_l1:10")] == [
        20160, 32736, 10230]
    assert [checks.CLASSICAL_ORDERS[k] for k in ("a6", "sp4_2", "a7", "psu3_3", "g2_2")] == [
        360, 720, 2520, 6048, 12096]
    assert checks.PEPS_AUT_ORDER == 16515072
    assert checks.a2_fusion_sizes(5) == [1, 31, 992]


def test_differing_repetitions_are_not_correct():
    rep = {"ops": [{"name": "op", "seconds": 0.1, "digest": "a", "problems": []}],
           "missed_corruptions": [], "layers": None}
    other = {"ops": [{"name": "op", "seconds": 0.1, "digest": "b", "problems": []}],
             "missed_corruptions": [], "layers": None}
    assert run.summarize([(False, rep), (False, rep)], [0.1], trace=False)["correct"]
    assert not run.summarize([(False, rep), (False, other)], [0.1], trace=False)["correct"]
