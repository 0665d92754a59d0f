"""Self-check of the benchmark harness; exits 0 when every check holds.

    python3 perfbench/selfcheck.py

Runs the tiny op list of every workload (all ops must pass, traced and
untraced), plants a wrong expected answer in each workload (it must show up
as a failed op and an incorrect run), runs the wired(3,7) Smith form under a
short deadline (it must fail as a missed deadline, not as a wrong answer,
and count at its deadline),
and checks that BENCHMARK.json names exactly the metrics and workloads that
run.py prints.
"""

from __future__ import annotations

import json
import random
import signal
import sys

import run
from workloads import WHY, WORKLOADS, _smith_op

# op kind whose expectation is swapped between two ops with different inputs
PLANT = {"escape-words": "branch-word", "ball-growth": "aggregate",
         "finite-graphs": "root-order"}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    problems: list[str] = []

    def expect(cond: bool, what: str) -> None:
        print(("ok   " if cond else "FAIL ") + what, flush=True)
        if not cond:
            problems.append(what)

    m = run.load_rotorlab()
    for name, build in WORKLOADS.items():
        ops = build(m, random.Random(f"{name}/selfcheck"), tiny=True)
        tr = run.Tracer(True)
        _, _, fails, wrong = run.run_pass(ops, run.Tracer(False), 30.0)
        expect(not fails and not wrong, f"{name}: tiny pass, untraced")
        _, _, fails, wrong = run.run_pass(ops, tr, 30.0)
        expect(not fails and not wrong, f"{name}: tiny pass, traced")
        metrics = run.layer_metrics([tr], 0.0, 0,
                                    [(1.0, True)] * run.N_CRITERIA)
        expect(list(metrics) == [n for n, _ in run.per_layer_names()],
               f"{name}: traced pass yields every per-layer metric")

        a, b = [op for op in ops if op.kind == PLANT[name]][:2]
        expect(a.input != b.input, f"{name}: planted pair has distinct inputs")
        a.check, b.check = b.check, a.check
        _, _, fails, wrong = run.run_pass(ops, run.Tracer(False), 30.0)
        expect(wrong and len(fails) == 2
               and all(f["reason"].startswith("wrong answer") for f in fails),
               f"{name}: planted wrong answers show up as failed ops")

    _, lat, fails, wrong = run.run_pass([_smith_op(m, 7)], run.Tracer(False),
                                        0.5)
    expect(len(fails) == 1 and fails[0]["reason"] == run.MISSED
           and not wrong and lat[0] == 0.5,
           "wired(3,7) Smith form fails as a missed deadline")

    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    expect([(w["name"], w["why"]) for w in bench["workloads"]]
           == list(WHY.items()) and list(WHY) == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")
    expect([(e["name"], e["unit"]) for e in bench["end_to_end"]]
           == list(run.END_TO_END), "BENCHMARK.json end-to-end metrics")
    expect([(p["name"], p["unit"]) for p in bench["per_layer"]]
           == run.per_layer_names(), "BENCHMARK.json per-layer metrics")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
