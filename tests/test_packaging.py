"""The toolkit stays standard-library only: no declared or imported dependency."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", text, re.MULTILINE)


def test_package_imports_only_stdlib_or_itself():
    sources = sorted((ROOT / "src" / "suzuki2").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_import_adds_only_the_known_stdlib_modules():
    # every benchmark workload times this import as setup_s, so a new
    # import-time dependency shows here first
    code = (
        "import sys; base = set(sys.modules); import suzuki2.cli, suzuki2.verify; "
        "print(*(m for m in set(sys.modules) - base if m.split('.')[0] != 'suzuki2'))"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert set(out.split()) == {
        "argparse",
        "gettext",
        "json",
        "json.decoder",
        "json.encoder",
        "json.scanner",
        "_json",
    }


def uses_outside(allowed, wanted):
    """file:line of each name, attribute, import or keyword argument in
    wanted, in the package modules other than those allowed."""
    uses = []
    for path in sorted((ROOT / "src" / "suzuki2").glob("*.py")):
        if path.stem in allowed:
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.keyword):
                name = node.arg
            if name in wanted:
                uses.append(f"{path.name}:{node.lineno}")
    return uses


def test_only_groups_and_constructions_skip_light_test():
    # FiniteGroup._certified skips the associativity check, and
    # closure(..., certified=...) routes a table to it; only the cocycle
    # builders, which certify biadditivity first, may ask for that
    assert uses_outside(("groups", "constructions"), ("_certified", "certified")) == []


def test_only_permgrp_and_repmod_name_the_unvalidated_orbit_walk():
    # _trusted_orbits skips validation; other modules walk certified
    # points through repmod.point_orbits and anything else through orbit
    assert uses_outside(("permgrp", "repmod"), ("_trusted_orbits",)) == []


def test_only_permgrp_walks_a_schreier_tree_and_forms_its_words():
    # extend_transversal is the one tree walk and transversal_word the one
    # word accessor; StabChain and brute_force_aut share them, and a second
    # copy could form a word along another edge than the tree's
    defined = [
        f"{path.name}:{node.name}"
        for path in sorted((ROOT / "src" / "suzuki2").glob("*.py"))
        if path.stem != "permgrp"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef)
        and ("transversal" in node.name or "schreier" in node.name.lower())
    ]
    assert defined == []
    source = (ROOT / "src" / "suzuki2" / "automorphisms.py").read_text()
    imported = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "permgrp"
        for alias in node.names
    }
    assert {"extend_transversal", "transversal_word"} <= imported


def test_only_automorphisms_and_permgrp_name_their_unchecked_entries():
    # Automorphism._product wraps a permutation without the certificate,
    # and StabChain._add skips validating the generator it strips; each
    # is trusted only inside the module that argues its precondition
    assert uses_outside(("automorphisms",), ("_product",)) == []
    assert uses_outside(("permgrp",), ("_add",)) == []


def test_only_groups_names_the_special_cache():
    # FiniteGroup.special computes the structure once and caches it in
    # _special; a module that wrote the slot or called the builder could
    # leave a structure that disagrees with the table
    assert uses_outside(("groups",), ("_special", "_special_structure")) == []


def test_only_linalg_converts_and_row_reduces_packed_vectors():
    # linalg.pack/unpack own the packed layout, _rref_packed is the one
    # row reduction (echelon its GF(2) entry) and _scale scales packed
    # rows; a second converter, or a call of these elsewhere, could fork
    # the bit layout
    assert uses_outside(("linalg",), ("_rref_packed", "_scale")) == []
    helpers = [
        f"{path.name}:{node.name}"
        for path in sorted((ROOT / "src" / "suzuki2").glob("*.py"))
        if path.stem != "linalg"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef) and ("pack" in node.name or "echelon" in node.name)
    ]
    assert helpers == []
