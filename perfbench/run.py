"""rotorlab benchmark: one workload and one seed, timed end to end or traced.

    python3 perfbench/run.py --workload escape-words --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
The seed alone generates the inputs and their expected answers (see
``workloads.py``).  Set-up (import, input generation, warm-up) is repeated
``SETUPS`` times and its median reported.  Then the seeded op list is run in
passes, in one thread, until ``--seconds`` would be exceeded (at least one
pass).  Every op runs under a deadline enforced by SIGALRM and is checked
exactly; an op that raises, answers wrongly or misses its deadline fails.

Times are reported in reference seconds.  On a shared host the speed of
the CPU drifts by up to 2x, in phases from milliseconds to minutes, while
process CPU time stays equal to wall time, so no statistic taken inside one
run removes it.  So a fixed pure-Python loop in this file (``ref_loop``) is
timed before the first op and after every op (and every set-up), and each
measured time is scaled by ``REF_NOMINAL_S`` over the mean of the two loop
times beside it: a reference second is the time the work takes on a host
running that loop at its nominal speed.  The loop is a small rotor walk
with the program's instruction mix (dict lookups on tuple keys, tuple
allocation), which tracks the program's slowdowns more closely than plain
integer loops do; it runs with the garbage collector off and frees all it
made, so the program's heap does not slow it.  Deadlines are in reference
seconds too, and a missed op counts at its deadline.

Each op's latency is its median over the passes of the run.  ``--trace 0``
prints the end-to-end metrics: ``wall_s``, the sum of those latencies (the
time the program takes to answer the whole op list), their median and 90th
percentile over the ops, set-up time and peak memory.  ``--trace 1``
alternates untraced and traced passes, records a span around every call
into a rotorlab module, then times the acceptance battery, and prints the
per-layer metrics: span calls and self time per pass, per-call and per-chip
times, the engine's exact counters, CLI output sizes, criterion times and
verdicts, and the tracing overhead (traced minus untraced ``wall_s``).
Span and criterion times are plain seconds.  Spans are written to
``perfbench/out/``.

The last line of stdout is the result object; the line before it is the
run record (interpreter, nproc, seed, commit, plain pass seconds, the
median reference-loop time, failed ops with their inputs).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from workloads import WHY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("lazytree", "escape", "walk", "graph", "group", "trees", "cli",
           "acceptance")
SETUPS = 5
DEADLINE_S = 5.0
# plain seconds, so that a traced run ends within its time limit
CRITERION_DEADLINE_S = 90.0

# The reference loop: a rotor walk on the infinite ternary tree with its
# rotors in a dict keyed by address tuples, the instruction mix of the
# lazy engine.  REF_NOMINAL_S is its time for REF_STEPS steps on a quiet
# 2.0 GHz Intel Xeon vCPU under CPython 3.11.
REF_STEPS = 2500
REF_CHIP_STEPS = 25
REF_NOMINAL_S = 6.5e-4

END_TO_END = (("wall_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("setup_s", "s"), ("peak_rss_mib", "MiB"))

SPANS = (
    "op",
    "lazytree.run_chips_infinite", "lazytree.aggregate",
    "lazytree.aggregate_modified", "lazytree.find_cyclic_pair",
    "escape.is_escape_branch", "escape.is_escape_tree",
    "escape.synthesize_branch", "escape.synthesize_tree",
    "escape.descriptor_to_branch_config",
    "walk.route_all",
    "graph.enumerate_recurrent", "graph.spanning_tree_count",
    "group.verify_isomorphism", "group.order_of_generator",
    "group.sandpile_structure",
    "trees.build_wired_tree", "trees.build_branch",
    "trees.exit_measure_experiment", "trees.hitting_probabilities",
    "cli.main.escape-alternating", "cli.main.escape-uniform-3-2",
    "cli.main.escape-uniform-4-3", "cli.main.aggregate", "cli.main.group",
)
CLI_LABELS = [s[len("cli.main."):] for s in SPANS if s.startswith("cli.main.")]

# (metric, unit, kind, args): "per_unit" is span seconds per counted unit,
# scaled; "mean" is span seconds per call, scaled; "ratio" divides two
# counters; "per_call" is a counter per span call; "per_pass" is a counter
# per traced pass; "run" counts over the whole run.
LAYER_METRICS = [
    ("lazytree.run_chips_infinite.us_per_chip", "us", "per_unit",
     ("lazytree.run_chips_infinite", "lazytree.run_chips_infinite.chips",
      1e6)),
    ("lazytree.walk_chip.steps_per_chip", "steps", "ratio",
     ("lazytree.walk_chip.steps", "lazytree.run_chips_infinite.chips")),
    ("lazytree.walk_chip.depth_per_chip", "levels", "ratio",
     ("lazytree.walk_chip.max_depth", "lazytree.run_chips_infinite.chips")),
    ("lazytree.state.materialized_rotors", "count", "per_pass", ()),
    ("lazytree.state.patches", "count", "per_pass", ()),
    ("lazytree.state.rays_recorded", "count", "per_pass", ()),
    ("lazytree.state.pending_ray_tips", "count", "per_pass", ()),
    ("lazytree.state.ray_counts", "count", "per_pass", ()),
    ("lazytree.aggregate.us_per_chip", "us", "per_unit",
     ("lazytree.aggregate", "lazytree.aggregate.chips", 1e6)),
    ("lazytree.aggregate_modified.us_per_chip", "us", "per_unit",
     ("lazytree.aggregate_modified", "lazytree.aggregate_modified.chips",
      1e6)),
    ("lazytree.find_cyclic_pair.ms", "ms", "mean",
     ("lazytree.find_cyclic_pair", 1e3)),
    ("escape.is_escape_branch.us", "us", "mean",
     ("escape.is_escape_branch", 1e6)),
    ("escape.is_escape_tree.us", "us", "mean", ("escape.is_escape_tree", 1e6)),
    ("escape.synthesize_branch.ms", "ms", "mean",
     ("escape.synthesize_branch", 1e3)),
    ("escape.synthesize_tree.ms", "ms", "mean",
     ("escape.synthesize_tree", 1e3)),
    ("escape.descriptor_nodes", "count", "ratio",
     ("escape.descriptor_nodes", "escape.descriptors")),
    ("walk.route_all.us_per_chip", "us", "per_unit",
     ("walk.route_all", "walk.route_all.chips", 1e6)),
    ("graph.enumerate_recurrent.ms", "ms", "mean",
     ("graph.enumerate_recurrent", 1e3)),
    ("graph.recurrent_states", "count", "per_pass", ()),
    ("graph.spanning_tree_count.ms", "ms", "mean",
     ("graph.spanning_tree_count", 1e3)),
    ("group.verify_isomorphism.ms", "ms", "mean",
     ("group.verify_isomorphism", 1e3)),
    ("group.order_of_generator.ms", "ms", "mean",
     ("group.order_of_generator", 1e3)),
    ("group.sandpile_structure.ms", "ms", "mean",
     ("group.sandpile_structure", 1e3)),
    ("group.sandpile_structure.deadline_misses", "count", "run", ()),
    ("trees.exit_measure_experiment.ms", "ms", "mean",
     ("trees.exit_measure_experiment", 1e3)),
    ("trees.hitting_probabilities.ms", "ms", "mean",
     ("trees.hitting_probabilities", 1e3)),
]
for _label in CLI_LABELS:
    LAYER_METRICS += [
        (f"cli.main.{_label}.ms", "ms", "mean", (f"cli.main.{_label}", 1e3)),
        (f"cli.main.{_label}.bytes", "bytes", "per_call",
         (f"cli.main.{_label}.bytes", f"cli.main.{_label}")),
    ]
N_CRITERIA = 9


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run prints, with its unit."""
    names = [(name, unit) for name, unit, _, _ in LAYER_METRICS]
    names.append(("trace.overhead_s", "s"))
    for n in range(1, N_CRITERIA + 1):
        names += [(f"acceptance.criterion_{n}.s", "s"),
                  (f"acceptance.criterion_{n}.ok", "bool")]
    for span in SPANS:
        names += [(f"span.{span}.calls", "count"),
                  (f"span.{span}.self_s", "s")]
    return names


MISSED = "missed its deadline"


class DeadlineExceeded(BaseException):
    """Raised by SIGALRM in the op that overran its deadline; a BaseException
    so that no ``except Exception`` inside the program swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


class Tracer:
    """Spans (name, start, end, parent index, op id, error) and counters,
    kept in memory; disabled, ``call`` is a plain call."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.op_id: int | None = None
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = [name, time.perf_counter(), None, parent, self.op_id, None]
        self.spans.append(span)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[5] = type(exc).__name__
            raise
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, n: int) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + n


def load_rotorlab() -> SimpleNamespace:
    """Fresh import of every rotorlab module from the checkout's src/."""
    for name in [k for k in sys.modules
                 if k == "rotorlab" or k.startswith("rotorlab.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"rotorlab.{name}")
            for name in MODULES}
    where = Path(mods["lazytree"].__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"rotorlab imported from {where}, not {SRC}")
    return SimpleNamespace(**mods)


def ref_loop(steps: int = REF_STEPS) -> float:
    """Seconds taken by ``steps`` steps of the reference rotor walk, with
    the garbage collector off so that the program's heap does not enter."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        rotor: dict[tuple, int] = {}
        for _ in range(steps // REF_CHIP_STEPS):
            addr: tuple = ()
            for _ in range(REF_CHIP_STEPS):
                r = rotor.get(addr, 0)
                rotor[addr] = 0 if r == 2 else r + 1
                addr = addr[:-1] if r == 0 and addr else addr + (r,)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_pass(ops, tr: Tracer, deadline_s: float, skip=frozenset(),
             refs: list[float] | None = None):
    """Run every op not in ``skip`` once under its deadline and check it.

    Returns (pass seconds, less the time spent in ops that missed their
    deadline; op latencies in reference seconds with None for skipped ops;
    failure records; wrong) where ``wrong`` is set when an op
    raised or answered incorrectly; a missed deadline is a failure but not
    a wrong answer, and its latency is ``deadline_s``.  Every reference-loop
    time is appended to ``refs`` when given.
    """
    latencies, failures, wrong = [], [], False
    missed_s = 0.0
    start = time.perf_counter()
    ref = ref_loop()
    for i, op in enumerate(ops):
        if i in skip:
            latencies.append(None)
            continue
        tr.op_id = i
        reason = None
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL,
                                 deadline_s * ref / REF_NOMINAL_S)
                result = tr.call("op", op.run, tr)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            reason = MISSED
        except Exception as exc:
            reason = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if reason == MISSED:
            missed_s += elapsed
        after = ref_loop()
        if refs is not None:
            refs.append(after)
        latencies.append(deadline_s if reason == MISSED
                         else elapsed * 2 * REF_NOMINAL_S / (ref + after))
        ref = after
        if reason is None:
            try:
                op.check(result)
            except Exception as exc:
                reason = f"wrong answer: {type(exc).__name__}: {exc}"
        if reason is not None:
            wrong = wrong or reason != MISSED
            failures.append({"op": i, "kind": op.kind, "input": op.input,
                             "reason": reason})
    return (time.perf_counter() - start - missed_s, latencies, failures,
            wrong)


def setup(workload: str, seed: int):
    """Import, seeded inputs and a warm-up pass over the tiny op list."""
    m = load_rotorlab()
    build = WORKLOADS[workload]
    ops = build(m, random.Random(f"{workload}/{seed}"), tiny=False)
    warm = build(m, random.Random(f"{workload}/warm-up"), tiny=True)
    run_pass(warm, Tracer(False), DEADLINE_S)
    return m, ops


def span_stats(tracers: list[Tracer]) -> dict[str, list[float]]:
    """name -> [calls, total seconds, self seconds]."""
    stats: dict[str, list[float]] = {}
    for tr in tracers:
        child = [0.0] * len(tr.spans)
        for name, t0, t1, parent, _, _ in tr.spans:
            if parent is not None:
                child[parent] += t1 - t0
        for (name, t0, t1, _, _, _), c in zip(tr.spans, child):
            s = stats.setdefault(name, [0, 0.0, 0.0])
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - c
    return stats


def layer_metrics(tracers: list[Tracer], overhead_s: float, smith_misses: int,
                  battery: list[tuple[float, bool]]) -> dict[str, float]:
    stats = span_stats(tracers)
    counters: dict[str, int] = {}
    for tr in tracers:
        for k, v in tr.counters.items():
            counters[k] = counters.get(k, 0) + v
    passes = len(tracers)

    def span(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i]

    def div(a, b):
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name, _, kind, args in LAYER_METRICS:
        if kind == "per_unit":
            s, unit, scale = args
            out[name] = div(span(s, 1), counters.get(unit, 0)) * scale
        elif kind == "mean":
            s, scale = args
            out[name] = div(span(s, 1), span(s, 0)) * scale
        elif kind == "ratio":
            out[name] = div(counters.get(args[0], 0), counters.get(args[1], 0))
        elif kind == "per_call":
            out[name] = div(counters.get(args[0], 0), span(args[1], 0))
        elif kind == "run":
            out[name] = smith_misses
        else:
            out[name] = counters.get(name, 0) / passes
    out["trace.overhead_s"] = overhead_s
    for n, (secs, ok) in enumerate(battery, start=1):
        out[f"acceptance.criterion_{n}.s"] = secs
        out[f"acceptance.criterion_{n}.ok"] = int(ok)
    for s in SPANS:
        out[f"span.{s}.calls"] = span(s, 0) / passes
        out[f"span.{s}.self_s"] = span(s, 2) / passes
    return out


def run_battery(m) -> tuple[list[tuple[float, bool]], list[int]]:
    """Each acceptance criterion once, under its own deadline; returns the
    (seconds, verdict) of each and the numbers of those that missed their
    deadline, which count as failed but not as wrong."""
    results, late = [], []
    for n, fn in enumerate(m.acceptance.ALL_CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            try:
                signal.setitimer(signal.ITIMER_REAL, CRITERION_DEADLINE_S)
                ok = fn().ok
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except DeadlineExceeded:
            ok = False
            late.append(n)
        results.append((time.perf_counter() - t0, ok))
    return results, late


def git_commit() -> str | None:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
    except OSError:
        return None
    return head


def measure(workload: str, seed: int, seconds: float,
            trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (result object, run record)."""
    setup_times, refs = [], []
    for _ in range(SETUPS):
        before = ref_loop()
        t0 = time.perf_counter()
        m, ops = setup(workload, seed)
        elapsed = time.perf_counter() - t0
        after = ref_loop()
        setup_times.append(elapsed * 2 * REF_NOMINAL_S / (before + after))

    walls: dict[bool, list[float]] = {False: [], True: []}
    lats: dict[bool, list[list]] = {False: [], True: []}
    tracers, failures, missed = [], [], set()
    wrong = False
    attempted = 0
    begin = time.perf_counter()
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        tr = Tracer(traced)
        wall, lat, fails, bad = run_pass(ops, tr, DEADLINE_S, missed, refs)
        walls[traced].append(wall)
        lats[traced].append(lat)
        attempted += len(ops) - len(missed)
        npass = len(walls[False]) + len(walls[True])
        failures += [dict(f, workload=workload, seed=seed, pass_number=npass)
                     for f in fails]
        # an op that missed its deadline keeps that latency and is not
        # run again in later passes of this run
        missed |= {f["op"] for f in fails if f["reason"] == MISSED}
        wrong = wrong or bad
        if traced:
            tracers.append(tr)
        done = not trace or walls[True]
        if done and time.perf_counter() - begin + wall > seconds:
            break

    # Each op's latency is its median over the run's passes.
    best = {mode: [statistics.median(x for x in col if x is not None)
                   if any(x is not None for x in col) else None
                   for col in zip(*rows)] for mode, rows in lats.items()}
    if trace:
        misses = sum(f["kind"] == "smith-form" and f["reason"] == MISSED
                     for f in failures)
        battery, late = run_battery(m)
        wrong = wrong or any(not ok for n, (_, ok) in enumerate(battery, 1)
                             if n not in late)
        failures += [{"criterion": n, "reason": MISSED, "workload": workload,
                      "seed": seed} for n in late]
        overhead = sum(t - u for t, u in zip(best[True], best[False])
                       if t is not None)
        metrics = layer_metrics(tracers, overhead, misses, battery)
        units = dict(per_layer_names())
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"trace-{workload}-{seed}.json", "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "error"],
                       "passes": [{"spans": tr.spans, "counters": tr.counters}
                                  for tr in tracers]}, fh)
    else:
        metrics = {
            "wall_s": sum(best[False]),
            "op_p50_ms": statistics.median(best[False]) * 1e3,
            "op_p90_ms": statistics.quantiles(best[False], n=10)[8] * 1e3,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mib":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    record = {
        "workload": workload, "why": WHY[workload], "seed": seed,
        "trace": trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": git_commit(),
        "ops_per_pass": len(ops), "deadline_s": DEADLINE_S,
        "pass_s": walls[False], "traced_pass_s": walls[True],
        "setup_ref_s": setup_times,
        "ref_loop_median_s": statistics.median(refs), "failures": failures,
    }
    return result, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rotorlab" / "__init__.py").is_file():
        print(f"error: no rotorlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    result, record = measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    print(json.dumps({"run_record": record}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
