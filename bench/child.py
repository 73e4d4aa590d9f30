"""One repetition of a workload in a fresh interpreter.

    python3 bench/child.py WORKLOAD SEED TRACE SCRATCH

Imports the program once, then runs each of the workload's operations,
in the order the seed gives, in a process forked from that state: every
operation starts from the same heap, so neither its time nor its peak
resident set depends on what ran before it. The forked process times
the call into the program and nothing else, judges the output, runs the
seeded negative checks and sends the result back through a pipe.

Prints one JSON object: per operation its seconds, the digest of its
canonical output and its problems; the corruptions no check rejected;
and, with TRACE 1, the per-layer metrics summed over the operations,
after writing their spans to SCRATCH/trace.jsonl.
"""

import json
import os
import random
import sys
import traceback
from collections import Counter
from time import perf_counter

import workloads


def measure(op, rng, tracer):
    """Run, judge and corrupt one operation; the fork's whole result."""
    start = perf_counter()
    try:
        output = op.run()
    except Exception:
        return {"seconds": perf_counter() - start, "digest": None,
                "problems": [traceback.format_exc(limit=3)], "missed": []}
    seconds = perf_counter() - start
    layers = spans = None
    if tracer is not None:
        layers, spans = tracer.metrics(), tracer.spans
    data, problems = op.judge(output)
    return {"seconds": seconds, "digest": workloads.digest(data),
            "problems": problems, "missed": op.negatives(output, rng),
            "layers": layers, "spans": spans}


def in_fork(fn, *args):
    """fn(*args) in a forked process; its JSON result, or None if it died."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            with os.fdopen(write_fd, "w") as pipe:
                json.dump(fn(*args), pipe)
        except BaseException:
            traceback.print_exc()
            raise
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as pipe:
        text = pipe.read()
    os.waitpid(pid, 0)
    return json.loads(text) if text else None


def main(workload, seed, trace, scratch):
    tracer = None
    if trace:
        from tracer import Tracer, dump

        tracer = Tracer().install()
    ops = workloads.operations(workload, scratch)
    random.Random(f"{workload}:{seed}").shuffle(ops)
    results, missed, spans = [], [], []
    layers = Counter()
    for op in ops:
        rng = random.Random(f"{workload}:{seed}:{op.name}")
        got = in_fork(measure, op, rng, tracer)
        if got is None:
            got = {"seconds": 0.0, "digest": None, "problems": ["operation process died"],
                   "missed": []}
        results.append({"name": op.name, "seconds": got["seconds"], "digest": got["digest"],
                        "problems": got["problems"]})
        missed += got["missed"]
        if got.get("layers"):
            layers.update(got["layers"])
            spans += [[op.name] + span for span in got["spans"]]
    out = {"ops": results, "missed_corruptions": missed, "layers": None}
    if tracer is not None:
        out["layers"] = dict(layers)
        dump(f"{scratch}/trace.jsonl", spans, out["layers"])
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4])
