"""In-memory span tracer that instruments fieldforge from the outside.

The tracer wraps every public function of every public fieldforge module,
plus the field-file methods of ``CompiledFields`` and scipy's ``solve_ivp``
where fieldforge imported it.  Each wrapper is rebound under every name a
fieldforge module holds for the original, so a call made inside the
package (``cli.main`` -> ``compile`` -> ``calibrate_x_gate``) is recorded
with the right parent.  Nothing in the package itself changes.

A span is ``[name, start, end, parent_index, item]`` with times from
``time.perf_counter``.  Spans and counters stay in memory until the run
writes them out.  Wrappers check ``active`` first, so an installed but
inactive tracer adds one attribute read per call.
"""

import functools
import inspect
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict

# Public helpers left unwrapped: each one is called thousands of times per
# item from inside an ODE right-hand side or a per-element loop, so a span
# per call would cost more than the work it measures.  The CLI's rendering
# and argument helpers stay inside cli.main's self time on purpose.
SKIP = frozenset({
    "adiabatic.gevrey_bump",
    "cli.build_parser",
    "cli.load_circuit",
    "cli.render_json",
})

# Call arguments that split one function into variants, as in
# passage.propagate_sweep.lab and passage.propagate_sweep.rwa.
VARIANTS = {
    "passage.propagate_sweep": "frame",
    "adiabatic.propagate": "mode",
}


def _file_size(*parts):
    path = os.path.join(*parts)
    return os.path.getsize(path) if os.path.exists(path) else 0


def _count_compile(tr, args, result):
    tr.counters["compiler.compile.samples"] += 2 * result.t.size * result.x.size


def _count_save(tr, args, result):
    tr.counters["compiler.save.bytes"] += (
        _file_size(args["out_dir"], args["basename"] + ".json")
        + _file_size(args["out_dir"], args["basename"] + ".bin"))


def _count_save_csv(tr, args, result):
    tr.counters["compiler.save_csv.bytes"] += _file_size(args["path"])


def _count_load(tr, args, result):
    tr.counters["compiler.load.bytes"] += (
        _file_size(args["out_dir"], args["basename"] + ".json")
        + _file_size(args["out_dir"], args["basename"] + ".bin"))


def _count_shots(tr, args, result):
    tr.counters["measure.hadamard_test.shots"] += result.shots


def _count_modes(tr, args, result):
    tr.counters["fieldtheory.mode_decomposition.modes"] += len(result.omegas)


def _count_points(tr, args, result):
    import numpy as np
    tr.counters["chirp.fresnel.points"] += int(np.size(args["z"]))


AFTER = {
    "compiler.compile": _count_compile,
    "compiler.save": _count_save,
    "compiler.save_csv": _count_save_csv,
    "compiler.load": _count_load,
    "measure.hadamard_test": _count_shots,
    "fieldtheory.mode_decomposition": _count_modes,
    "chirp.fresnel": _count_points,
}

# tracemalloc runs only inside this call, and only in a traced run
ALLOC = "compiler.compile"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.peaks = defaultdict(float)
        self.item = None
        self.active = False
        self._stack = []
        self._undo = []

    # --- recording -----------------------------------------------------

    def _wrap(self, fn, name):
        variant = VARIANTS.get(name)
        after = AFTER.get(name)
        alloc = name == ALLOC
        sig = inspect.signature(fn) if (variant or after) else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            bound = None
            label = name
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if variant:
                    label = f"{name}.{bound.arguments[variant]}"
            stack = tracer._stack
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.item]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            if alloc:
                tracemalloc.start()
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    key = name + ".peak_alloc_mb"
                    tracer.peaks[key] = max(tracer.peaks[key], peak / 1e6)
            if after is not None:
                after(tracer, bound.arguments, result)
            return result

        return wrapper

    def _wrap_solve_ivp(self, fn):
        inner = self._wrap(fn, "scipy.solve_ivp")
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            # nfev goes to the layer of the innermost open fieldforge span
            layer = "unattributed"
            if tracer._stack:
                layer = tracer.spans[tracer._stack[-1]][0].split(".", 1)[0]
            sol = inner(*args, **kwargs)
            tracer.counters[layer + ".rhs_evals"] += sol.nfev
            return sol

        return wrapper

    def _wrap_cache(self, fn, name):
        """Count lookups and hits of an lru_cache'd function."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            hits = fn.cache_info().hits
            result = fn(*args, **kwargs)
            tracer.counters[name + ".lookups"] += 1
            tracer.counters[name + ".hits"] += fn.cache_info().hits - hits
            return result

        return wrapper

    # --- installation --------------------------------------------------

    def install(self):
        """Wrap and rebind; call after fieldforge has been imported."""
        from scipy.integrate import solve_ivp
        from fieldforge.compiler import CompiledFields, _entangling_window

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "fieldforge"
                                         or n.startswith("fieldforge."))]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if mod.__name__ == "fieldforge" or short.startswith("_"):
                continue
            for attr, val in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(val) and val.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    wrapped[id(val)] = (val, self._wrap(val, name))
        wrapped[id(solve_ivp)] = (solve_ivp, self._wrap_solve_ivp(solve_ivp))
        wrapped[id(_entangling_window)] = (
            _entangling_window,
            self._wrap_cache(_entangling_window, "gates.entangling"))

        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrapped.get(id(val))
                if hit is not None and hit[0] is val:
                    self._rebind(mod, attr, hit[1])

        for attr in ("save", "save_csv"):
            fn = CompiledFields.__dict__[attr]
            self._rebind(CompiledFields, attr,
                         self._wrap(fn, f"compiler.{attr}"))
        load = CompiledFields.__dict__["load"]
        self._rebind(CompiledFields, "load",
                     classmethod(self._wrap(load.__func__, "compiler.load")))

    def _rebind(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # --- analysis ------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the time of direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, item in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (name, start, end, parent, item), c in zip(self.spans, child)]

    def aggregate(self, items):
        """calls, busy_s and self_s per span name over the given items."""
        items = set(items)
        out = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for rec, own in zip(self.spans, self.self_times()):
            if rec[4] in items:
                row = out[rec[0]]
                row["calls"] += 1
                row["busy_s"] += rec[2] - rec[1]
                row["self_s"] += own
        return dict(out)

    def root_time(self, item):
        """Sum of the durations of an item's top-level spans.

        Equals the sum of self_s over all of the item's spans, because the
        spans of one thread nest without overlap.
        """
        return sum(end - start for name, start, end, parent, it in self.spans
                   if it == item and parent < 0)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, item in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "item": item}) + "\n")
