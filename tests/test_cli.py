"""Command-line behavior: output shapes, exit codes, config handling."""

import json

import pytest

from suzuki2 import catalog, cli, repmod, verify
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


@pytest.mark.parametrize("command", ["construct", "fusion", "aut"])
def test_degree_zero_family_is_an_error(capsys, command):
    code, out, err = run(capsys, [command, "a2:0:1"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "degree" in err


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


def test_module_iso_unknown_exit3(capsys, tmp_path, monkeypatch):
    # Trivial vs unipotent in dim 6: the hom space has 2^30 combinations,
    # none invertible, so the seeded search exhausts; dim Hom = 30 against
    # dim End = 36 and 26 then refutes the pair.
    ctx = FieldContext(1)
    ident = Matrix.identity(ctx, 6)
    rows = [list(r) for r in ident.rows]
    rows[0][1] ^= 1
    p1 = tmp_path / "triv.txt"
    p2 = tmp_path / "unip.txt"
    p1.write_text(module_to_text(GModule(ctx, 6, {"g0": ident})))
    p2.write_text(module_to_text(GModule(ctx, 6, {"g0": Matrix(ctx, rows)})))
    code, out, _ = run(capsys, ["module", "iso", str(p1), str(p2)])
    assert code == 0
    assert out == "false\n"
    # With no random trials, trivial against itself stays undecided.
    monkeypatch.setattr(repmod, "_ISOMORPHISM_TRIALS", 0)
    code, out, _ = run(capsys, ["module", "iso", str(p1), str(p1)])
    assert code == 3
    assert out == "unknown\n"


@pytest.mark.parametrize("dims", ["1 -1", "-1 2"])
def test_module_negative_dims_are_a_format_error(capsys, tmp_path, dims):
    path = tmp_path / "neg.txt"
    path.write_text(f"gen g0\nfield 1 poly=0x3\ndim {dims}\n1\n")
    code, out, err = run(capsys, ["module", "info", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "bad matrix header" in err


def test_module_unknown_op(capsys, tmp_path):
    code, _, err = run(capsys, ["module", "frobnicate", "x"])
    assert code == 2
    assert "frobnicate" in err


def test_module_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, ["module", "info", str(tmp_path / "absent.txt")])
    assert code == 2
    assert err.startswith("error:")


def test_module_wrong_argument_count(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text(module_to_text(catalog.entry_sl(2, 1).module()))
    p = str(path)
    for argv, want in (
        (["iso", p], "module iso: got 1 arguments, takes 2"),
        (["iso", p, p, p], "module iso: got 3 arguments, takes 2"),
        (["info", p, "extra"], "module info: got 2 arguments, takes 1"),
        (["irreducible", p, p], "module irreducible: got 2 arguments, takes 1"),
        (["lattice", p, p], "module lattice: got 2 arguments, takes 1"),
        (["dump", "sl:2:1", p, "extra"], "module dump: got 3 arguments, takes 1 or 2"),
    ):
        code, out, err = run(capsys, ["module"] + argv)
        assert code == 2, argv
        assert err.startswith("error:") and want in err, argv
        assert out == "", argv


def test_unreadable_inputs_exit_2(capsys, tmp_path):
    binary = tmp_path / "binary.txt"
    binary.write_bytes(b"gen g0\n\xff\xfe\x00\n")
    for argv in (
        ["module", "info", str(tmp_path)],
        ["module", "info", str(binary)],
        ["verify", "all", "--config", str(tmp_path)],
        ["verify", "all", "--config", str(binary)],
    ):
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert out == "", argv


def test_verify_undecodable_data_file_fails(capsys, tmp_path):
    (tmp_path / "a6.txt").write_bytes(b"\xff\xfe" + bytes(range(256)))
    out = tmp_path / "out"
    code, text, _ = run(
        capsys,
        ["verify", "small-eliminations", "--entry", "a6", "--data-dir", str(tmp_path), "--out", str(out)],
    )
    assert code == 1
    assert "small-eliminations entry=a6 -> fail" in text
    claim = json.loads((out / "small-eliminations-entry-a6.json").read_text())["claims"][0]
    assert claim["id"] == "data-file"
    assert claim["computed"].startswith("BadFormat: a6.txt: not text")


def test_catalog_verify_ok(capsys):
    code, out, _ = run(capsys, ["catalog", "verify", "sp4:1"])
    assert code == 0
    assert "order: expected 720 computed 720 ok" in out
    assert out.rstrip().endswith("verified")


def test_catalog_verify_mismatch(capsys, tmp_path, monkeypatch):
    # the trailer's n and order are checked against SPORADICS on loading,
    # so the recomputation is contradicted through the solvable flag
    doctored = catalog.entry_path("a6").read_text().replace("solvable=0", "solvable=1")
    (tmp_path / "a6.txt").write_text(doctored)
    monkeypatch.setenv("SUZUKI2_DATA", str(tmp_path))
    code, out, _ = run(capsys, ["catalog", "verify", "a6"])
    assert code == 1
    assert "solvable: expected True computed False MISMATCH" in out
    assert "verification FAILED" in out


def test_catalog_verify_refuses_a_file_that_is_not_the_entry(capsys, tmp_path, monkeypatch):
    # a6.txt verifies against its own trailer, so under a7's name it would
    # print "verified"; its n and order are not the ones SPORADICS records
    # for a7, and neither is a doctored trailer order
    a6 = catalog.entry_path("a6").read_text()
    (tmp_path / "a7.txt").write_text(a6)
    (tmp_path / "a6.txt").write_text(a6.replace("order=360", "order=169"))
    monkeypatch.setenv("SUZUKI2_DATA", str(tmp_path))
    for name, have in (("a7", "'order': 360"), ("a6", "'order': 169")):
        code, out, err = run(capsys, ["catalog", "verify", name])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{name}.txt holds {{'n': 4, {have}}}" in err


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


def test_verify_lines_leave_out_the_data_dir(capsys, tmp_path):
    # data_dir is a run setting, not a param: neither the report, the CLI
    # line, summary.tsv nor the file name shows it
    out = tmp_path / "out"
    code, text, _ = run(
        capsys,
        ["verify", "small-eliminations", "--entry", "m11", "--data-dir", str(tmp_path), "--out", str(out)],
    )
    assert code == 1
    assert text.splitlines() == [
        "small-eliminations entry=m11 -> fail",
        "summary: 0 pass, 1 fail, 0 unknown",
    ]
    report = json.loads((out / "small-eliminations-entry-m11.json").read_text())
    assert report["params"] == {"entry": "m11"}
    tsv = (out / "summary.tsv").read_text().splitlines()
    assert tsv[1].startswith("small-eliminations\tentry=m11\tfail\t")
    assert tsv[1].endswith("\t0")


def test_verify_rejects_flags_the_scenario_does_not_take(capsys):
    for argv in (
        ["sl2-omega", "--n", "7"],
        ["sl2-omega", "--n", "7", "--entry", "zz"],
        ["theorem-dual", "--n", "3", "--f", "2"],
    ):
        code, out, err = run(capsys, ["verify", *argv])
        assert code == 2, argv
        assert err.startswith("error:"), argv
        assert "--" in err and out == "", argv


# a value for each required scenario param, as verify flags
REQUIRED_FLAGS = {"n": ["--n", "3"], "f": ["--f", "1"], "entry": ["--entry", "a6"]}


@pytest.mark.parametrize("setting", ["slow", "data_dir"])
@pytest.mark.parametrize("target", ["all", *sorted(verify.SCENARIOS)])
def test_a_run_setting_reaches_a_scenario_or_exits_2(capsys, monkeypatch, tmp_path, setting, target):
    # what a scenario is called with is what it computes from; a setting
    # that only moved the cache key would not show here
    reached = []

    def stub(name):
        return lambda **kw: reached.append(kw) or verify._report(name, {}, [])

    for name in verify.SCENARIOS:
        monkeypatch.setitem(verify.SCENARIOS, name, stub(name))
    argv = ["verify", target]
    if target != "all":
        args, defaults = verify._SIGNATURES[target]
        argv += [x for a in args if a in REQUIRED_FLAGS and a not in defaults for x in REQUIRED_FLAGS[a]]
    value = True if setting == "slow" else str(tmp_path)
    argv += ["--slow"] if setting == "slow" else ["--data-dir", value]
    code, out, err = run(capsys, argv)
    takes = target == "all" or setting in verify._SIGNATURES[target][0]
    if takes:
        assert code == 0, argv
        assert any(kw.get(setting) == value for kw in reached), argv
    else:
        assert code == 2, argv
        assert err == f"error: no scenario in the plan takes {setting}\n", argv
        assert out == "" and reached == [], argv


def test_verify_all_rejects_single_scenario_flags(capsys):
    for argv in (["--n", "3", "--entry", "zz"], ["--f", "2"], ["--entry", "a6"]):
        code, out, err = run(capsys, ["verify", "all", *argv])
        assert code == 2, argv
        assert err.startswith("error:") and argv[0] in err, argv
        assert "single scenario" in err and out == "", argv


def test_config_rejects_true_false_for_params_that_are_not_switches(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    for line, word in (
        ("scenario = sp-lambda f=true", "f takes no true/false"),
        ("scenario = theorem-dual n=false", "n takes no true/false"),
        ("scenario = small-eliminations entry=true", "entry takes no true/false"),
    ):
        # slow defaults to false, so slow=true on the line before is valid
        cfg.write_text("scenario = suzuki-suite slow=true\n" + line + "\n")
        code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2, line
        assert err.startswith("error:") and word in err, line
        assert "slow" not in err and out == "", line


def test_config_rejects_a_switch_that_is_not_true_or_false(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("scenario = suzuki-suite slow=maybe\n")
    code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error:") and "slow takes only true/false" in err
    assert out == ""


def test_config_rejects_missing_and_unknown_params(capsys, tmp_path):
    for line, word in (
        ("scenario = theorem-dual", "missing n"),
        ("scenario = sl2-omega bogus=1", "unknown bogus"),
        ("scenario = theorem-dual n=3\nscenario = sp-lambda", "missing f"),
    ):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(line + "\n")
        code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2, line
        assert err.startswith("error:") and word in err, line
        # checked before anything runs
        assert out == "", line


def test_config_rejects_data_dir_on_a_scenario_line(capsys, tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text("scenario = small-eliminations entry=a6 data_dir=/x\n")
    code, _, err = run(capsys, ["verify", "all", "--config", str(cfg)])
    assert code == 2
    assert err.startswith("error:")
    assert "data_dir key" in err


def test_verify_corrupted_data_file_fails(capsys, tmp_path):
    lines = (catalog.data_directory() / "a6.txt").read_text().splitlines()
    lines[4] = "0"
    (tmp_path / "a6.txt").write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code, text, _ = run(
        capsys,
        ["verify", "small-eliminations", "--entry", "a6", "--data-dir", str(tmp_path), "--out", str(out)],
    )
    assert code == 1
    assert "small-eliminations entry=a6 -> fail" in text
    claim = json.loads((out / "small-eliminations-entry-a6.json").read_text())["claims"][0]
    assert claim["id"] == "data-file"
    assert "catalog discover a6" in claim["computed"]


def test_config_rejects_bad_input(capsys, tmp_path):
    cases = [
        "colour = green\n",
        "seed = 0\n",
        "scenario = theorem-dual n3\n",
        "just some words\n",
        "slow = maybe\n",
        "jobs = 2\n",
    ]
    for body in cases:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        code, _, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2, body
        assert err.startswith("error:"), body


def test_config_rejects_a_key_or_param_given_twice(capsys, tmp_path):
    for body, word in (
        ("scenario = theorem-dual n=3 n=6\n", "'n' is given twice"),
        ("data_dir = /a\ndata_dir = /b\nscenario = theorem-dual n=3\n", "'data_dir' is given twice"),
        ("slow = false\nslow = true\n", "'slow' is given twice"),
    ):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(body)
        code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2, body
        assert err.startswith("error:") and word in err, body
        assert out == "", body
    # scenario is the one key that repeats
    cfg.write_text("scenario = theorem-dual n=3\nscenario = theorem-dual n=6\n")
    assert len(cli.parse_config(cfg)["scenarios"]) == 2


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


def test_config_rejects_seed_and_jobs_keys(capsys, tmp_path):
    for key in ("seed", "jobs"):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(f"scenario = theorem-dual n=3\n{key} = 1\n")
        code, out, err = run(capsys, ["verify", "all", "--config", str(cfg)])
        assert code == 2
        assert err.startswith(f"error: {key} is not a verify setting")
        assert "theorem-dual" not in out
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "all", "--jobs", "2"])
    assert exc.value.code == 2


def test_parse_config_values(tmp_path):
    cfg = tmp_path / "plan.cfg"
    cfg.write_text(
        "scenario = suzuki-suite slow=true\n"
        "scenario = theorem-dual n=6\n"
        "data_dir = /somewhere\n"
        "slow = false\n"
    )
    parsed = cli.parse_config(cfg)
    assert parsed["scenarios"] == [
        ("suzuki-suite", {"slow": True}),
        ("theorem-dual", {"n": 6}),
    ]
    assert parsed["data_dir"] == "/somewhere"
    assert parsed["slow"] is False
    assert set(parsed) == {"scenarios", "data_dir", "slow"}


def test_entry_from_name_families():
    assert cli._entry_from_name("gamma_l1:4").name == "gamma_l1_4"
    assert cli._entry_from_name("sl:2:2").name == "sl2_gf4"
    assert cli._entry_from_name("sp4:2").name == "sp4_gf4"
    assert cli._entry_from_name("a6").name == "a6"
    for bad in ("sl:x:1", "sp4", "gamma_l1:2:3", ""):
        with pytest.raises(Unsupported):
            cli._entry_from_name(bad)
