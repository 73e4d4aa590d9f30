"""Spans and counters around the program's public functions.

install() replaces every public function and method of the program's
layers, in every module namespace and class that holds it, by a wrapper
that records a span (id, parent, name, start, end), the self time of its
layer and the counts named in PROBES. Nothing is written while the
program runs: spans stay in memory and are written at the end by dump().

A call from a layer into the same layer adds nothing but its counts to
the trace, so a layer's self time is the time spent in its own code
between calls into other layers. Spans shorter than SPAN_MIN_S are folded
into their parent's self time and only counted, which keeps the trace
small when the field layer is called millions of times.
"""

import importlib
import itertools
import json
from collections import defaultdict
from time import perf_counter
from types import FunctionType

PACKAGE = "suzuki2"
LAYERS = (
    "gf2n",
    "linalg",
    "groups",
    "permgrp",
    "constructions",
    "automorphisms",
    "repmod",
    "catalog",
    "verify",
    "cli",
)
SPAN_MIN_S = 0.001
# operators that are the public face of a class, besides its named methods
PUBLIC_DUNDERS = ("__init__", "__add__", "__mul__", "__pow__")
# polynomial arithmetic under FieldContext.mul, called about ten million
# times per `verify all` from inside gf2n only: wrapping it would add
# seconds of overhead and no layer seam
INNER = {("gf2n", "poly_degree"), ("gf2n", "poly_mul"), ("gf2n", "poly_mod")}


def _scenario_slug(args):
    name, params = args[0], args[1]
    parts = [name] + [f"{k}-{str(params[k]).lower()}" for k in sorted(params)]
    return "verify.scenario_s." + "-".join(parts)


def _npoints(args, result):
    return args[0].npoints


def _table_cells(args, result):
    return args[0].n ** 2


def _points_permuted(args, result):
    return sum(len(p) for p in result)


# (layer, qualified name) -> probe. "count" bumps a counter per call,
# "amount" adds amount(args, result) to a counter, "timer" accumulates the
# inclusive time of the outermost active call, "callback" runs the
# positional argument at that index as a span of the layer defining it.
PROBES = {
    ("gf2n", "FieldContext.mul"): {"count": "gf2n.mul_calls"},
    ("linalg", "_rref_rows"): {"count": "linalg.rref_calls"},
    ("groups", "FiniteGroup.__init__"): {"amount": ("groups.table_cells", _table_cells)},
    ("groups", "closure"): {"callback": 1},
    ("permgrp", "compose"): {"count": "permgrp.compose_calls"},
    ("permgrp", "validate_permutation"): {"count": "permgrp.validate_calls"},
    ("permgrp", "StabChain.__init__"): {
        "timer": "permgrp.stabchain_s",
        "amount": ("permgrp.chain_points", _npoints),
    },
    ("automorphisms", "_certificate_witness"): {
        "count": "automorphisms.certificates",
        "timer": "automorphisms.certificate_s",
    },
    ("automorphisms", "aut_group_order"): {"timer": "automorphisms.aut_order_s"},
    ("automorphisms", "brute_force_aut"): {"timer": "automorphisms.brute_s"},
    ("automorphisms", "find_isomorphism"): {"timer": "automorphisms.brute_s"},
    ("repmod", "point_permutations"): {"amount": ("repmod.points_permuted", _points_permuted)},
    ("repmod", "submodule_lattice"): {"timer": "repmod.lattice_s"},
    ("repmod", "is_isomorphic"): {"timer": "repmod.iso_s"},
    ("catalog", "verify_entry"): {"timer": "catalog.verify_entry_s"},
    ("verify", "_run_one"): {"timer": _scenario_slug},
}


class Tracer:
    """Spans, per-layer self time, probe counters and timers of one process."""

    def __init__(self):
        self.spans = []
        self.short_calls = 0
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self.timers = defaultdict(float)
        self.t0 = perf_counter()
        self._stack = []
        self._ids = itertools.count(1)
        self._active = defaultdict(int)

    def install(self):
        """Wrap every public function of the program's layers, everywhere."""
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, FunctionType) and obj.__module__ == mod.__name__:
                    if self._wanted(layer, name, name):
                        replaced[id(obj)] = self._wrap(obj, layer, name)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in obj.items():
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]
        return self

    @staticmethod
    def _wanted(layer, short, qualname):
        if (layer, qualname) in INNER:
            return False
        return not short.startswith("_") or short in PUBLIC_DUNDERS or (layer, qualname) in PROBES

    def _wrap_class(self, cls, layer):
        for name, obj in list(vars(cls).items()):
            qualname = f"{cls.__name__}.{name}"
            if not self._wanted(layer, name, qualname):
                continue
            if isinstance(obj, FunctionType):
                setattr(cls, name, self._wrap(obj, layer, qualname))
            elif isinstance(obj, (classmethod, staticmethod)):
                setattr(cls, name, type(obj)(self._wrap(obj.__func__, layer, qualname)))

    def _wrap(self, fn, layer, qualname):
        probe = PROBES.get((layer, qualname), {})
        count = probe.get("count")
        amount_key, amount = probe.get("amount", (None, None))
        timer = probe.get("timer")
        callback = probe.get("callback")
        always_span = amount is not None or timer is not None or callback is not None
        name = f"{layer}.{qualname}"
        stack, spans, counts = self._stack, self.spans, self.counts
        self_s, timers, active, ids = self.self_s, self.timers, self._active, self._ids

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if stack and stack[-1][0] == layer and not always_span:
                return fn(*args, **kwargs)
            if callback is not None:
                args = list(args)
                args[callback] = self._as_own_layer(args[callback])
            key = timer(args) if callable(timer) else timer
            sid = next(ids)
            parent = stack[-1][1] if stack else 0
            frame = [layer, sid, 0.0]
            stack.append(frame)
            if key is not None:
                active[key] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                self_s[layer] += took - frame[2]
                if stack:
                    stack[-1][2] += took
                if key is not None:
                    active[key] -= 1
                    if not active[key]:
                        timers[key] += took
                if took >= SPAN_MIN_S:
                    spans.append((sid, parent, name, start - self.t0, end - self.t0))
                else:
                    self.short_calls += 1
            if amount is not None:
                counts[amount_key] += amount(args, result)
            return result

        return traced

    def _as_own_layer(self, fn):
        """A callback handed across a layer seam, traced in its own layer."""
        module = getattr(fn, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if layer not in LAYERS or not isinstance(fn, FunctionType):
            return fn
        return self._wrap(fn, layer, fn.__qualname__)

    def metrics(self):
        """Per-layer self times, counters and timers, by metric name."""
        out = {f"{layer}.self_s": self.self_s.get(layer, 0.0) for layer in LAYERS}
        out.update(self.counts)
        out.update(self.timers)
        out["trace.short_calls"] = self.short_calls
        return out


def dump(path, spans, summary):
    """Write spans [op, id, parent, name, start, end] as JSON lines, then
    one line with the summed metrics."""
    keys = ("op", "id", "parent", "name", "start", "end")
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(dict(zip(keys, span))) + "\n")
        fh.write(json.dumps({"summary": summary, "span_min_s": SPAN_MIN_S}, sort_keys=True) + "\n")
