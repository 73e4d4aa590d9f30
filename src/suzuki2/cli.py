"""Command-line surface: constructions, catalog upkeep, scenario runs.

Exit codes: 0 all checks passed, 1 a check or scenario failed, 2 usage or
configuration error (argparse errors included), 3 a verdict came back
unknown. Bad input never escapes as a traceback; toolkit errors and
unreadable files (OSError, UnicodeDecodeError) are printed and mapped to
exit 2.

Configuration files are line-based `key = value` text; `scenario` lines
repeat, one per scenario, as `scenario = theorem-dual n=3`. Recognized
keys: scenario, data_dir, results_dir, cache_dir, slow; only scenario
may repeat, and a key or a scenario-line param given twice is an error
(exit 2) rather than a value silently dropped. A scenario-line
param or `verify --n/--f/--entry` flag that the scenario does not take is
an error (exit 2), as is a missing one, a true/false value for a param
whose default is not true/false, and any of those flags with `verify
all`; data_dir is a run setting only, never a scenario-line param, and
--slow, --data-dir or a slow or data_dir key that no scenario of the
plan takes is an error (exit 2) too. The search budget belongs to
`catalog discover --budget` alone, so a `budget` key is a configuration
error rather than a silently ignored setting; so are `seed` and `jobs`, since reports are deterministic and
scenarios run one after another. The SUZUKI2_DATA environment variable
overrides the data directory for catalog entries exactly as the
data_dir key does.
"""

import argparse
import sys
from pathlib import Path

from . import catalog, verify
from .automorphisms import (
    aut_group_order,
    brute_force_aut,
    fusion_classes,
    known_aut_generators,
)
from .constructions import build_family
from .errors import BadFormat, NotFound, ToolkitError, Unsupported
from .gf2n import DEFAULT_POLYS, FieldContext, poly_to_hex
from .permgrp import DEFAULT_BUDGET
from .repmod import (
    UNKNOWN,
    is_irreducible,
    is_isomorphic,
    module_from_text,
    module_to_text,
    submodule_lattice,
)


def _parse_scalar(text):
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        return text


def _parse_scenario_line(value):
    parts = value.split()
    if not parts:
        raise ToolkitError("empty scenario line")
    name, params = parts[0], {}
    for p in parts[1:]:
        if "=" not in p:
            raise ToolkitError(f"scenario parameter {p!r} is not key=value")
        k, v = p.split("=", 1)
        if k in params:
            raise ToolkitError(f"scenario parameter {k!r} is given twice")
        params[k] = _parse_scalar(v)
    return name, params


def parse_config(path):
    """Line-based `key = value` configuration; see the module docstring."""
    cfg = {}
    scenarios = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ToolkitError(f"expected `key = value`, got {raw!r}")
        key, value = key.strip(), value.strip()
        if key in cfg:
            raise ToolkitError(f"config key {key!r} is given twice")
        if key == "scenario":
            scenarios.append(_parse_scenario_line(value))
        elif key in ("data_dir", "results_dir", "cache_dir"):
            cfg[key] = value
        elif key == "budget":
            raise ToolkitError(
                "budget is not a verify setting; pass it to "
                "`suzuki2 catalog discover --budget N`"
            )
        elif key in ("seed", "jobs"):
            raise ToolkitError(
                f"{key} is not a verify setting: scenarios are deterministic "
                "and run one after another"
            )
        elif key == "slow":
            if value.lower() not in ("true", "false"):
                raise ToolkitError(f"slow must be true or false, got {value!r}")
            cfg[key] = value.lower() == "true"
        else:
            raise ToolkitError(f"unknown config key {key!r}")
    if scenarios:
        cfg["scenarios"] = scenarios
    return cfg


def _entry_from_name(name):
    """Family specifier (gamma_l1:3, sl:3:1, sp4:2) or sporadic data name."""
    parts = name.split(":")
    try:
        if parts[0] == "gamma_l1" and len(parts) == 2:
            return catalog.entry_gamma_l1(int(parts[1]))
        if parts[0] == "sl" and len(parts) == 3:
            return catalog.entry_sl(int(parts[1]), int(parts[2]))
        if parts[0] == "sp4" and len(parts) == 2:
            return catalog.entry_sp4(int(parts[1]))
    except ValueError:
        raise Unsupported(f"bad catalog name {name!r}") from None
    if name in catalog.SPORADICS:
        return catalog.load_sporadic(name)
    raise Unsupported(
        f"unknown catalog name {name!r}; families are gamma_l1:<n>, sl:<m>:<f>, "
        f"sp4:<f>; sporadics are {sorted(catalog.SPORADICS)}"
    )


def _fmt_profile(profile):
    return "{" + ",".join(f"{k}:{profile[k]}" for k in sorted(profile)) + "}"


def _cmd_field(args):
    print("degree  polynomial  size  generator_order")
    for n in sorted(DEFAULT_POLYS):
        ctx = FieldContext(n)
        print(
            f"{n:>6}  {poly_to_hex(ctx.poly):>10}  {ctx.size:>4}  "
            f"{ctx.multiplicative_order(ctx.t):>15}"
        )
    return 0


def _cmd_construct(args):
    g = build_family(args.spec)
    print(
        f"order {g.n}, center {len(g.center())}, "
        f"profile {_fmt_profile(g.order_profile())}"
    )
    return 0


def _group_auts(g):
    try:
        return known_aut_generators(g), "family generators"
    except Unsupported:
        return brute_force_aut(g), "exhaustive search"


def _cmd_fusion(args):
    g = build_family(args.spec)
    auts, source = _group_auts(g)
    fp = fusion_classes(g, auts)
    print(f"fusion classes under {source}: {len(fp.classes)}")
    print("sizes " + ",".join(str(s) for s in fp.sizes))
    return 0


def _cmd_aut(args):
    g = build_family(args.spec)
    auts, source = _group_auts(g)
    order = aut_group_order(g, auts)
    print(f"automorphism group order {order} ({source})")
    if args.brute_force:
        if source == "exhaustive search":
            print("order already computed exhaustively")
            return 0
        brute = len(brute_force_aut(g))
        print(f"brute-force order {brute}")
        if brute != order:
            print("MISMATCH between generated and brute-force orders")
            return 1
        print("brute-force count matches the generated order")
    return 0


def _load_module_file(path):
    return module_from_text(Path(path).read_text())


# module op -> (fewest, most) arguments it takes
_MODULE_ARGS = {
    "dump": (1, 2),
    "info": (1, 1),
    "irreducible": (1, 1),
    "lattice": (1, 1),
    "iso": (2, 2),
}


def _cmd_module(args):
    if args.op not in _MODULE_ARGS:
        raise Unsupported(f"unknown module op {args.op!r}; know {', '.join(_MODULE_ARGS)}")
    lo, hi = _MODULE_ARGS[args.op]
    if not lo <= len(args.args) <= hi:
        want = str(lo) if lo == hi else f"{lo} or {hi}"
        raise BadFormat(f"module {args.op}: got {len(args.args)} arguments, takes {want}")
    if args.op == "dump":
        entry = _entry_from_name(args.args[0])
        text = module_to_text(entry.module())
        if len(args.args) > 1:
            Path(args.args[1]).write_text(text)
            print(f"wrote {args.args[1]}")
        else:
            sys.stdout.write(text)
        return 0
    if args.op == "info":
        mod = _load_module_file(args.args[0])
        print(
            f"dim {mod.dim} over GF(2^{mod.ctx.n}), "
            f"{len(mod.symbols)} generators: " + ",".join(mod.symbols)
        )
        return 0
    if args.op == "irreducible":
        print("true" if is_irreducible(_load_module_file(args.args[0])) else "false")
        return 0
    if args.op == "lattice":
        lattice = submodule_lattice(_load_module_file(args.args[0]))
        print("submodule dims " + ",".join(str(w.dim) for w in lattice))
        return 0
    verdict = is_isomorphic(_load_module_file(args.args[0]), _load_module_file(args.args[1]))
    if verdict is UNKNOWN:
        print("unknown")
        return 3
    print("true" if verdict else "false")
    return 0


def _cmd_catalog(args):
    if args.action == "verify":
        entry = _entry_from_name(args.name)
        report = catalog.verify_entry(entry)
        for check in report["checks"]:
            mark = "ok" if check["passed"] else "MISMATCH"
            print(
                f"{check['name']}: expected {check['expected']} "
                f"computed {check['computed']} {mark}"
            )
        print("verified" if report["passed"] else "verification FAILED")
        return 0 if report["passed"] else 1
    if args.action == "discover":
        try:
            entry = catalog.discover_entry(args.name, seed=args.seed, budget=args.budget)
        except NotFound as exc:
            print(f"not found: {exc}", file=sys.stderr)
            return 1
        path = catalog.entry_path(args.name)
        print(f"discovered {entry.name} (seed {args.seed}), wrote {path}")
        return 0
    raise Unsupported(f"unknown catalog action {args.action!r}")


def _cmd_verify(args):
    cfg = parse_config(args.config) if args.config else {}
    if args.out:
        cfg["results_dir"] = args.out
    if args.slow:
        cfg["slow"] = True
    if args.data_dir:
        cfg["data_dir"] = args.data_dir
    if args.cache_dir:
        cfg["cache_dir"] = args.cache_dir
    if args.no_cache:
        cfg.pop("cache_dir", None)

    params = {k: getattr(args, k) for k in ("n", "f", "entry") if getattr(args, k) is not None}
    if args.target != "all":
        cfg["scenarios"] = [(args.target, params)]
    elif params:
        flags = " ".join(f"--{k}" for k in params)
        raise BadFormat(f"{flags}: these flags select a single scenario's params, not verify all's")

    results = verify.run_all(cfg)
    for res in results:
        report = res["report"]
        cached = " [cached]" if res["cached"] else ""
        print(
            f"{report['scenario']} {verify.param_string(report) or '-'}"
            f" -> {report['verdict']}{cached}"
        )
    reports = [res["report"] for res in results]
    counts = {
        v: sum(1 for r in reports if r["verdict"] == v)
        for v in ("pass", "fail", "unknown")
    }
    print(
        f"summary: {counts['pass']} pass, {counts['fail']} fail, "
        f"{counts['unknown']} unknown"
    )
    return verify.worst_exit(reports)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="suzuki2",
        description="Special 2-group constructions and their verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="finite field facts")
    p_field.add_argument("topic", choices=["info"])
    p_field.set_defaults(fn=_cmd_field)

    p_con = sub.add_parser("construct", help="build a group family member")
    p_con.add_argument("spec", help="family spec such as a2:3:1, b2:2, peps, hc:2:4, q:16")
    p_con.set_defaults(fn=_cmd_construct)

    p_fus = sub.add_parser("fusion", help="fusion classes of a family member")
    p_fus.add_argument("spec")
    p_fus.set_defaults(fn=_cmd_fusion)

    p_aut = sub.add_parser("aut", help="automorphism group order")
    p_aut.add_argument("spec")
    p_aut.add_argument("--brute-force", action="store_true")
    p_aut.set_defaults(fn=_cmd_aut)

    p_mod = sub.add_parser("module", help="module file operations")
    p_mod.add_argument("op", help="dump | info | irreducible | lattice | iso")
    p_mod.add_argument("args", nargs="+")
    p_mod.set_defaults(fn=_cmd_module)

    p_cat = sub.add_parser("catalog", help="linear group catalog upkeep")
    p_cat.add_argument("action", choices=["verify", "discover"])
    p_cat.add_argument("name")
    p_cat.add_argument("--seed", type=int, default=1)
    p_cat.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p_cat.set_defaults(fn=_cmd_catalog)

    p_ver = sub.add_parser("verify", help="run verification scenarios")
    p_ver.add_argument("target", help="all or a scenario name")
    p_ver.add_argument("--config")
    p_ver.add_argument("--out")
    p_ver.add_argument("--slow", action="store_true")
    p_ver.add_argument("--data-dir")
    p_ver.add_argument("--cache-dir")
    p_ver.add_argument("--no-cache", action="store_true")
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--f", type=int)
    p_ver.add_argument("--entry")
    p_ver.set_defaults(fn=_cmd_verify)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ToolkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
