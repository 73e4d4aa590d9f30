"""Command-line behavior: output shapes, exit codes, config handling."""

import json

import pytest

from suzuki2 import catalog, cli
from suzuki2.errors import ToolkitError, Unsupported
from suzuki2.gf2n import FieldContext
from suzuki2.linalg import Matrix
from suzuki2.repmod import GModule, direct_sum, module_to_text


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_exact_line(capsys):
    code, out, _ = run(capsys, ["construct", "a2:3:1"])
    assert code == 0
    assert out == "order 64, center 8, profile {1:1,2:7,4:56}\n"


def test_construct_bad_theta(capsys):
    code, out, err = run(capsys, ["construct", "a2:3:0"])
    assert code == 2
    assert out == ""
    assert "theta" in err


def test_construct_unknown_family(capsys):
    code, _, err = run(capsys, ["construct", "zz:1"])
    assert code == 2
    assert err.startswith("error:")


def test_field_info(capsys):
    code, out, _ = run(capsys, ["field", "info"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 13
    degree8 = lines[8].split()
    assert degree8 == ["8", "0x11D", "256", "255"]


def test_fusion_sizes(capsys):
    code, out, _ = run(capsys, ["fusion", "b2:2"])
    assert code == 0
    assert "fusion classes under family generators: 3" in out
    assert "sizes 1,3,60" in out


def test_aut_generated_order(capsys):
    code, out, _ = run(capsys, ["aut", "b2:2"])
    assert code == 0
    assert "automorphism group order 15360 (family generators)" in out


def test_aut_brute_force_match(capsys):
    code, out, _ = run(capsys, ["aut", "b2:1", "--brute-force"])
    assert code == 0
    assert "automorphism group order 24" in out
    assert "brute-force order 24" in out
    assert "matches" in out


def test_aut_exhaustive_fallback(capsys):
    code, out, _ = run(capsys, ["aut", "hc:2:4"])
    assert code == 0
    assert "automorphism group order 96 (exhaustive search)" in out
    code, out, _ = run(capsys, ["aut", "hc:2:4", "--brute-force"])
    assert code == 0
    assert "already computed exhaustively" in out


def test_module_roundtrip(capsys, tmp_path):
    path = str(tmp_path / "sl3.txt")
    code, out, _ = run(capsys, ["module", "dump", "sl:3:1", path])
    assert code == 0 and path in out

    code, out, _ = run(capsys, ["module", "info", path])
    assert code == 0
    assert "dim 3 over GF(2^1), 2 generators: g0,g1" in out

    code, out, _ = run(capsys, ["module", "irreducible", path])
    assert code == 0 and out == "true\n"

    code, out, _ = run(capsys, ["module", "lattice", path])
    assert code == 0 and "submodule dims 0,3" in out

    code, out, _ = run(capsys, ["module", "iso", path, path])
    assert code == 0 and out == "true\n"


def test_module_dump_stdout(capsys):
    code, out, _ = run(capsys, ["module", "dump", "gamma_l1:3"])
    assert code == 0
    assert out.startswith("gen g0\n")


def test_module_reducible(capsys, tmp_path):
    base = catalog.entry_sl(2, 1).module()
    path = tmp_path / "sum.txt"
    path.write_text(module_to_text(direct_sum(base, base)))
    code, out, _ = run(capsys, ["module", "irreducible", str(path)])
    assert code == 0 and out == "false\n"
    code, out, _ = run(capsys, ["module", "lattice", str(path)])
    assert code == 0
    dims = out.split("submodule dims ")[1].strip().split(",")
    assert dims[0] == "0" and dims[-1] == "4" and len(dims) > 2


def test_module_iso_unknown_exit3(capsys, tmp_path):
    # Trivial vs unipotent in dim 6: the hom space has 2^30 combinations,
    # none invertible, so the seeded search exhausts without a verdict.
    ctx = FieldContext(1)
    ident = Matrix.identity(ctx, 6)
    rows = [list(r) for r in ident.rows]
    rows[0][1] ^= 1
    p1 = tmp_path / "triv.txt"
    p2 = tmp_path / "unip.txt"
    p1.write_text(module_to_text(GModule(ctx, 6, {"g0": ident})))
    p2.write_text(module_to_text(GModule(ctx, 6, {"g0": Matrix(ctx, rows)})))
    code, out, _ = run(capsys, ["module", "iso", str(p1), str(p2)])
    assert code == 3
    assert out == "unknown\n"


def test_module_unknown_op(capsys, tmp_path):
    code, _, err = run(capsys, ["module", "frobnicate", "x"])
    assert code == 2
    assert "frobnicate" in err


def test_module_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["module", "info", str(tmp_path / "absent.txt")])
    assert code == 2
    assert err.startswith("error:")


def test_catalog_verify_ok(capsys):
    code, out, _ = run(capsys, ["catalog", "verify", "sp4:1"])
    assert code == 0
    assert "order: expected 720 computed 720 ok" in out
    assert out.rstrip().endswith("verified")


def test_catalog_verify_mismatch(capsys, tmp_path, monkeypatch):
    doctored = catalog.entry_path("a6").read_text().replace("order=360", "order=169")
    (tmp_path / "a6.txt").write_text(doctored)
    monkeypatch.setenv("SUZUKI2_DATA", str(tmp_path))
    code, out, _ = run(capsys, ["catalog", "verify", "a6"])
    assert code == 1
    assert "MISMATCH" in out
    assert "verification FAILED" in out


def test_catalog_unknown_name(capsys):
    code, _, err = run(capsys, ["catalog", "verify", "nosuch"])
    assert code == 2
    assert "nosuch" in err


def test_catalog_discover(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SUZUKI2_DATA", str(tmp_path))
    code, out, _ = run(capsys, ["catalog", "discover", "a6"])
    assert code == 0
    assert (tmp_path / "a6.txt").exists()
    assert "discovered a6 (seed 1)" in out

    code, _, err = run(capsys, ["catalog", "discover", "a7", "--budget", "0"])
    assert code == 1
    assert "not found" in err


def test_verify_single_scenario(capsys):
    code, out, _ = run(capsys, ["verify", "theorem-dual", "--n", "3"])
    assert code == 0
    assert "theorem-dual n=3 -> pass" in out
    assert "summary: 1 pass, 0 fail, 0 unknown" in out


def test_verify_missing_flag(capsys):
    code, _, err = run(capsys, ["verify", "theorem-dual"])
    assert code == 2
    assert "--n" in err


def test_verify_unknown_scenario(capsys):
    code, _, err = run(capsys, ["verify", "nonsense"])
    assert code == 2
    assert "nonsense" in err


def test_verify_config_and_cache(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "# two quick scenarios\n"
        "scenario = theorem-dual n=3\n"
        "scenario = sl2-omega f=2\n"
        f"cache_dir = {tmp_path / 'cache'}\n"
        f"results_dir = {tmp_path / 'out'}\n"
        "seed = 7\n"
    )
    code, out, _ = run(capsys, ["verify", "all", "--config", str(cfg)])
    assert code == 0
    assert "[cached]" not in out
    assert "summary: 2 pass, 0 fail, 0 unknown" in out

    code, out, _ = run(capsys, ["verify", "all", "--config", str(cfg)])
    assert code == 0
    assert out.count("[cached]") == 2

    tsv = (tmp_path / "out" / "summary.tsv").read_text().splitlines()
    assert tsv[0] == "scenario\tparams\tverdict\telapsed_ms\tcached"
    assert len(tsv) == 3
    assert (tmp_path / "out" / "theorem-dual-n-3.json").exists()
    assert (tmp_path / "out" / "sl2-omega-f-2.json").exists()


def test_verify_no_cache_flag(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "scenario = theorem-dual n=3\n" f"cache_dir = {tmp_path / 'cache'}\n"
    )
    run(capsys, ["verify", "all", "--config", str(cfg)])
    code, out, _ = run(capsys, ["verify", "all", "--config", str(cfg), "--no-cache"])
    assert code == 0
    assert "[cached]" not in out


def test_verify_out_byte_identical(capsys, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    run(capsys, ["verify", "theorem-dual", "--n", "3", "--out", str(d1)])
    run(capsys, ["verify", "theorem-dual", "--n", "3", "--out", str(d2)])
    name = "theorem-dual-n-3.json"
    b1 = (d1 / name).read_bytes()
    assert b1 == (d2 / name).read_bytes()
    report = json.loads(b1)
    assert report["verdict"] == "pass"


def test_config_rejects_bad_input(capsys, tmp_path):
    cases = [
        "colour = green\n",
        "seed = 18446744073709551616\n",
        "scenario = theorem-dual n3\n",
        "just some words\n",
        "slow = maybe\n",
        "jobs = many\n",
    ]
    for body in cases:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        code, _, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2, body
        assert err.startswith("error:"), body


def test_config_rejects_budget_key(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("scenario = theorem-dual n=3\nbudget = 500\n")
    code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error:")
    assert "catalog discover --budget" in err
    assert "theorem-dual" not in out
    with pytest.raises(ToolkitError, match="budget"):
        cli.parse_config(cfg)


def test_parse_config_values(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "scenario = suzuki-suite slow=true\n"
        "scenario = theorem-dual n=6\n"
        "data_dir = /somewhere\n"
        "jobs = 4\n"
        "slow = false\n"
        "seed = 0\n"
    )
    parsed = cli.parse_config(cfg)
    assert parsed["scenarios"] == [
        ("suzuki-suite", {"slow": True}),
        ("theorem-dual", {"n": 6}),
    ]
    assert parsed["data_dir"] == "/somewhere"
    assert parsed["jobs"] == 4
    assert parsed["slow"] is False
    assert parsed["seed"] == 0


def test_entry_from_name_families():
    assert cli._entry_from_name("gamma_l1:4").name == "gamma_l1_4"
    assert cli._entry_from_name("sl:2:2").name == "sl2_gf4"
    assert cli._entry_from_name("sp4:2").name == "sp4_gf4"
    assert cli._entry_from_name("a6").name == "a6"
    for bad in ("sl:x:1", "sp4", "gamma_l1:2:3", ""):
        with pytest.raises(Unsupported):
            cli._entry_from_name(bad)
