"""Benchmark of the suzuki2 toolkit: `verify all`, the module layers and
the brute-force oracle.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness RUNS --workload NAME --seconds S

A run times the interpreter start plus the CLI imports (setup_s) in many
fresh interpreters, then runs whole repetitions of the workload, each in
a fresh interpreter (bench/child.py), until S seconds have passed. Every
output is checked; the last line printed is one JSON object with the
operations attempted and failed and the end-to-end metrics (--trace 0)
or the per-layer metrics of a traced repetition (--trace 1), by the
names and units BENCHMARK.json declares.

--steadiness RUNS makes two sets of RUNS runs each, alternating between
the sets and giving every run its own seed, and prints each metric's
median, quartiles and relative spread per set.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("verify-default", "catalog-modules", "brute-oracle")
# fresh interpreters timed for setup_s, half before the repetitions and
# half after; one more start before them compiles bytecode and is dropped
SETUP_STARTS = 10
SETUP_CODE = "import suzuki2.cli, suzuki2.verify"
CHILD_TIMEOUT_S = 170


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def time_start(env):
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
    return perf_counter() - start


def run_child(workload, seed, traced, scratch, env):
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), "1" if traced else "0",
         str(scratch)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def measure(workload, seed, seconds, trace):
    """One run: setup starts, then whole repetitions until `seconds` pass."""
    env = child_env()
    out_dir = HERE / "out"
    scratch = out_dir / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        time_start(env)
        setup = [time_start(env) for _ in range(SETUP_STARTS // 2)]
        reps = []
        deadline = perf_counter() + seconds
        while not reps or perf_counter() < deadline:
            for traced in (False, True) if trace else (False,):
                reps.append((traced, run_child(workload, seed, traced, scratch, env)))
        setup += [time_start(env) for _ in range(SETUP_STARTS - SETUP_STARTS // 2)]
        if trace:
            shutil.copyfile(scratch / "trace.jsonl", out_dir / f"trace-{workload}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return summarize(reps, setup, trace)


def summarize(reps, setup, trace):
    attempted = failed = 0
    digests = {}
    times = {False: {}, True: {}}
    correct = True
    for traced, rep in reps:
        if rep["missed_corruptions"]:
            correct = False
            print("corruption not rejected:", rep["missed_corruptions"], file=sys.stderr)
        for op in rep["ops"]:
            attempted += 1
            if op["problems"]:
                failed += 1
                print(f"{op['name']} failed:", *op["problems"], sep="\n  ", file=sys.stderr)
                continue
            times[traced].setdefault(op["name"], []).append(op["seconds"])
            if digests.setdefault(op["name"], op["digest"]) != op["digest"]:
                correct = False
                print(f"{op['name']}: output differs between repetitions", file=sys.stderr)

    def wall(traced):
        return sum(statistics.median(ts) for ts in times[traced].values())

    if trace:
        layers = [rep["layers"] for traced, rep in reps if traced]
        keys = set().union(*layers)
        # median_low keeps counts whole: it is always one of the values
        metrics = {k: statistics.median_low(layer.get(k, 0) for layer in layers) for k in keys}
        metrics["trace.overhead_s"] = wall(True) - wall(False)
    else:
        metrics = {
            "wall_s": wall(False),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(summary, trace):
    got = summary["metrics"]
    metrics = {name: {"value": got.get(name, 0), "unit": unit} for name, unit in declared_metrics(trace)}
    return json.dumps(dict(summary, metrics=metrics))


def steadiness(workload, runs, seconds):
    """Two alternating sets of runs, each run a separate process and seed."""
    sets = {"A": [], "B": []}
    for i in range(runs):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            seed = 1000 * (name == "B") + i + 1
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                sys.exit(f"run failed:\n{proc.stderr[-2000:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            sets[name].append(res)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in res["metrics"].items())
            print(f"set {name} seed {seed}: {values} failed={res['failed']}/{res['attempted']}",
                  flush=True)
    sets["all"] = sets["A"] + sets["B"]
    summary = {}
    for metric, _ in declared_metrics(False):
        row = {}
        for name, results in sets.items():
            q1, med, q3 = quartiles([r["metrics"][metric]["value"] for r in results])
            row[name] = {"q1": q1, "median": med, "q3": q3, "spread": (q3 - q1) / med}
        row["shift"] = row["B"]["median"] / row["A"]["median"] - 1
        summary[metric] = row
        print(f"{metric}: " + "  ".join(
            f"{n} median {row[n]['median']:.4f} q1 {row[n]['q1']:.4f} q3 {row[n]['q3']:.4f} "
            f"spread {row[n]['spread']:.3f}" for n in sets) + f"  shift {row['shift']:+.3f}")
    shares = {n: sum(r["failed"] for r in rs) / sum(r["attempted"] for r in rs) for n, rs in sets.items()}
    print(json.dumps({"workload": workload, "runs": runs, "seconds": seconds,
                      "failed_share": shares, "metrics": summary}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    args = parser.parse_args(argv)
    if not (SRC / "suzuki2" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'suzuki2'}")
    if args.steadiness:
        steadiness(args.workload, args.steadiness, args.seconds)
        return
    summary = measure(args.workload, args.seed, args.seconds, args.trace == 1)
    print(result_line(summary, args.trace == 1))


if __name__ == "__main__":
    main()
