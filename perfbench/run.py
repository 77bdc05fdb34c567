#!/usr/bin/env python3
"""fieldforge benchmark: one closed-loop client on one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli_circuits --seed 1 --seconds 20 --trace 0

--trace 0 measures the end-to-end metrics: a timed loop of seeded items
for --seconds seconds of item time, with fresh interpreters timing the
set-up spread over the loop.  Item and stage times are reported in
seconds at the reference speed: wall times scaled by a fixed pure-Python
reference loop timed between the stages all through the run (see
Loop.scale), which takes out the machine's speed swings.  --trace 1 runs
the same loop with every fieldforge public function wrapped (see
tracer.py): even-numbered items are traced and odd-numbered ones run
untraced, which gives per-layer metrics per traced item and the tracing
overhead from interleaved items.  Spans go to .perfbench_out/.  Every
item's output is checked after its clock stops.  The last line of stdout
is one JSON object: correct, attempted, failed and metrics.  See NOTES.md
for the metric definitions.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
OUT = os.path.join(ROOT, ".perfbench_out")

# Fresh interpreters timing the set-up, spread evenly over the timed loop so
# they see the same machine states as the items.
SETUP_REPEATS = 7
# Two BLAS threads, or fewer on a smaller machine, so runs on different
# machines do the same work with the same parallelism.
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The reference loop: a fixed pure-Python loop of REF_ITERATIONS steps,
# timed REF_LOOPS times before an item's first stage and after each stage.
# REF_S is its median time on the reference machine (a 2-core Xeon VM,
# Python 3.11), so that a "ref_s" reads as a second at that machine's
# typical speed.
REF_ITERATIONS = 20_000
REF_LOOPS = 3
REF_S = 1.4e-3

STAGE_METRICS = ("stage1_mean_s", "stage2_mean_s", "stage3_mean_s")
END_TO_END = {"setup_s": "s", "items_per_s": "1/ref_s", "peak_rss_mb": "MB",
              "item_p50_s": "ref_s", "item_tail_s": "ref_s",
              **{name: "ref_s" for name in STAGE_METRICS}}

# Per-layer metrics, each per timed item: span name -> statistics.
LAYER_SPANS = {
    "cli.main": ("busy_s", "self_s"),
    "circuits.insert_swaps": ("calls", "busy_s"),
    "circuits.ideal_unitary": ("busy_s",),
    "gates.calibrate_x_gate": ("calls", "busy_s"),
    "gates.calibrate_z_gate": ("calls", "busy_s"),
    "gates.calibrate_entangling": ("calls", "busy_s"),
    "gates.coefficients_from_wells": ("busy_s",),
    "schrodinger.solve_bound_states": ("calls", "busy_s"),
    "compiler.compile": ("calls", "busy_s", "self_s"),
    "compiler.save": ("busy_s",),
    "compiler.simulate_schedule": ("busy_s",),
    "compiler.save_csv": ("busy_s",),
    "compiler.load": ("busy_s",),
    "measure.hadamard_test": ("busy_s",),
    "fieldtheory.mode_decomposition": ("calls", "busy_s"),
    "fieldtheory.local_energy_probe": ("busy_s",),
    "fieldtheory.creation_probabilities": ("busy_s",),
    "chirp.fresnel": ("calls", "busy_s"),
    "chirp.chirp_spectrum": ("busy_s",),
    "chirp.region_bound": ("calls", "busy_s"),
    "passage.propagate_sweep.lab": ("busy_s",),
    "passage.propagate_sweep.rwa": ("busy_s",),
    "adiabatic.propagate.full": ("busy_s",),
    "adiabatic.propagate.reduced": ("busy_s",),
    "adiabatic.build_frame_trajectory": ("busy_s",),
}
LAYER_COUNTERS = (
    "compiler.compile.samples", "compiler.save.bytes",
    "compiler.save_csv.bytes", "compiler.load.bytes",
    "measure.hadamard_test.shots", "fieldtheory.mode_decomposition.modes",
    "chirp.fresnel.points", "passage.rhs_evals", "adiabatic.rhs_evals",
)
UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "samples": "count",
         "bytes": "B", "shots": "count", "modes": "count", "points": "count",
         "rhs_evals": "count"}
PER_LAYER = {
    **{f"{span}.{stat}": UNITS[stat]
       for span, stats in LAYER_SPANS.items() for stat in stats},
    **{name: UNITS[name.rsplit(".", 1)[1]] for name in LAYER_COUNTERS},
    "gates.entangling_hit_ratio": "ratio",
    "compiler.compile.peak_alloc_mb": "MB",
    "trace.items_per_s": "1/s",
    "trace.overhead_ratio": "ratio",
    "trace.untraced_gap_share": "ratio",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def tail(values):
    """85th percentile, interpolated, and the number of values above it.

    The highest percentile with at least 10 values above it is near p87 on
    cli_circuits (70-90 items a run), but design_export (about 20 items)
    and numerics (about 6) have too few items for one.  A percentile picked
    from the item count jumps from the median to the maximum as the count
    falls through 20, so the tail is one fixed percentile in every run.
    """
    if len(values) < 2:
        return max(values), 0
    cut = statistics.quantiles(values, n=20, method="inclusive")[16]
    return cut, sum(v > cut for v in values)


def reference():
    """Median time of REF_LOOPS runs of the reference loop, in seconds."""
    times = []
    for _ in range(REF_LOOPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REF_ITERATIONS):
            acc += i * i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class StageClock:
    """Times an item's stages, and the reference loop after each one."""

    def __init__(self):
        self.wall = []
        self.refs = [reference()]

    def __call__(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.wall.append(time.perf_counter() - t0)
            self.refs.append(reference())


def measure_setup(workload):
    """Wall time of one fresh interpreter running the workload set-up."""
    env = dict(os.environ, PYTHONPATH=SRC)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", workload.setup_code], cwd=ROOT,
                   env=env, check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Loop:
    """Closed loop over seeded items; checks run after each item's clock.

    With a tracer, even-numbered items are traced and odd-numbered items
    run with the tracer inactive, so both kinds see the same machine states.
    """

    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.clocks = []  # one StageClock per item, in item order

    def traced(self, index):
        return self.tracer is not None and index % 2 == 0

    def wall(self, index):
        """Wall seconds of an item's stages."""
        return sum(self.clocks[index].wall)

    def scale(self):
        """Seconds at the reference speed per wall second in this run.

        On a host shared with other tenants the speed of a core swings,
        by up to 1.7x over seconds to minutes on the reference machine,
        and interpreter-bound code slows with it.  The reference loop,
        timed between the stages all through the run, slows the same way,
        so REF_S over its mean reference time turns the run's wall times
        into times at the reference speed.
        """
        return REF_S / statistics.fmean(r for c in self.clocks for r in c.refs)

    def complete(self):
        """StageClocks of the items that ran every stage."""
        return [c for c in self.clocks if len(c.wall) == len(self.wl.stages)]

    def item(self, index):
        """Run and check one item; returns its StageClock."""
        wl, tr = self.wl, self.tracer
        item = wl.make_item(index)
        workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=TMP)
        self.attempted += 1
        clock = StageClock()
        try:
            wl.prepare(item, workdir)
            if self.traced(index):
                tr.item, tr.active = index, True
            try:
                outputs = wl.run(item, workdir, clock)
            finally:
                if tr is not None:
                    tr.active = False
            problems = wl.check(item, outputs, workdir)
        except Exception:
            problems = ["raised:\n" + traceback.format_exc()]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if problems:
            self.failed += 1
            print(f"item {index} FAILED: " + "; ".join(problems),
                  file=sys.stderr)
        return clock

    def timed(self, seconds, limit=None):
        """Continue with the next items until the summed wall time of their
        stages reaches `seconds` or `limit` items have run."""
        while (sum(sum(c.wall) for c in self.clocks) < seconds
               and (limit is None or len(self.clocks) < limit)):
            self.clocks.append(self.item(len(self.clocks)))


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds, seed):
    workload.setup()
    loop = Loop(workload)
    setup_all = []
    for k in range(SETUP_REPEATS):
        setup_all.append(measure_setup(workload))
        loop.timed(seconds * (k + 1) / SETUP_REPEATS)
    done = loop.complete()
    scale = loop.scale()
    scaled = [[t * scale for t in c.wall] for c in done]
    items = [sum(st) for st in scaled]
    refs = [r for c in loop.clocks for r in c.refs]
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"items-{workload.name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"setup_s": setup_all, "stages": workload.stages,
                   "stage_wall_s": [c.wall for c in done],
                   "stage_ref_s": scaled,
                   "reference_s": [c.refs for c in done]}, fh)
    tail_s, beyond = tail(items)
    n = len(items)
    print(f"workload {workload.name}: {n} items, BLAS threads {BLAS_THREADS}, "
          f"set-up runs {[round(t, 4) for t in setup_all]}")
    print(f"item_tail_s is p85 of {n} items, with {beyond} items above it")
    print("stages: " + ", ".join(f"stage{k + 1}={name}"
                                 for k, name in enumerate(workload.stages)))
    print(f"reference loop: mean {statistics.fmean(refs) * 1e3:.3f} ms over "
          f"{len(refs)} timings, REF_S {REF_S * 1e3:.3f} ms; wall item "
          f"p50 {statistics.median(sum(c.wall) for c in done):.4f} s; wall "
          "stage means " + ", ".join(
              f"{statistics.fmean(c.wall[k] for c in done):.4f} s"
              for k in range(len(workload.stages))))
    values = {
        "setup_s": statistics.median(setup_all),
        "items_per_s": n / sum(items),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "item_p50_s": statistics.median(items),
        "item_tail_s": tail_s,
    }
    for k, name in enumerate(STAGE_METRICS):
        values[name] = statistics.fmean(st[k] for st in scaled)
    return loop, {name: _metric(values[name], unit)
                  for name, unit in END_TO_END.items()}


def traced(workload, seconds, seed):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.item, tracer.active = "setup", True
    try:
        workload.setup()
    finally:
        tracer.active = False
    # set-up spans stay in the span file; the counters cover traced items only
    tracer.counters.clear()
    loop = Loop(workload, tracer)
    loop.timed(seconds)
    loop.timed(float("inf"), limit=2)  # at least one item of each kind
    tracer.uninstall()

    index = range(len(loop.clocks))
    on = [i for i in index if loop.traced(i)]
    off = [i for i in index if not loop.traced(i)]
    busy = sum(loop.wall(i) for i in on)
    n = len(on)
    spans = tracer.aggregate(on)
    values = {}
    for span, stats in LAYER_SPANS.items():
        row = spans.get(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for stat in stats:
            values[f"{span}.{stat}"] = row[stat] / n
    for name in LAYER_COUNTERS:
        values[name] = tracer.counters.get(name, 0) / n
    lookups = tracer.counters.get("gates.entangling.lookups", 0)
    hits = tracer.counters.get("gates.entangling.hits", 0)
    values["gates.entangling_hit_ratio"] = hits / lookups if lookups else 0.0
    values["compiler.compile.peak_alloc_mb"] = tracer.peaks.get(
        "compiler.compile.peak_alloc_mb", 0.0)
    # the spans of an item nest without overlap, so its self times sum to
    # its top-level span time; the rest of the item is benchmark glue
    gaps = [loop.wall(i) - tracer.root_time(i) for i in on]
    values["trace.items_per_s"] = n / busy
    values["trace.overhead_ratio"] = (busy / n) / (
        sum(loop.wall(i) for i in off) / len(off))
    values["trace.untraced_gap_share"] = sum(gaps) / busy
    metrics = {name: _metric(values[name], unit)
               for name, unit in PER_LAYER.items()}

    path = os.path.join(OUT, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write(path)
    print(f"workload {workload.name}: {n} traced and {len(off)} untraced "
          f"items, {len(tracer.spans)} spans written to "
          f"{os.path.relpath(path, ROOT)}")
    for name in sorted(spans):
        row = spans[name]
        print(f"  {name:42s} calls {row['calls']:7d}  busy {row['busy_s']:9.4f} s"
              f"  self {row['self_s']:9.4f} s")
    return loop, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fieldforge", "__init__.py")):
        print(f"error: no fieldforge sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, SRC)
    import workloads  # imports numpy, so after the BLAS settings

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    os.makedirs(TMP, exist_ok=True)
    try:
        if args.trace:
            loop, metrics = traced(wl, args.seconds, args.seed)
        else:
            loop, metrics = end_to_end(wl, args.seconds, args.seed)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps({"correct": loop.failed == 0,
                      "attempted": loop.attempted,
                      "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
