#!/usr/bin/env python3
"""Checks on the benchmark itself.  Run from the repository root::

    python3 perfbench/selfcheck.py

0. ``BENCHMARK.json`` names exactly the metrics, units and directions
   ``run.py`` and ``tracing.py`` report, and the workloads they run.
1. The oracles accept correct outputs (ties included) and reject each
   kind of corrupted output: a swapped id, a tombstoned id, an
   unbalanced ledger, a NaN loss.
2. For every workload, a whole ``run.py --corrupt`` process fails:
   it exits non-zero and reports ``"correct": false``.
3. Determinism: two runs at one seed print identical workload results
   (every ``sim_*``, ``recall_at_k``, ``paper_cells_*`` and
   ``train_loss`` value, to the last digit).
4. Held-out seed: every workload's oracles pass at
   :data:`HELD_OUT_SEED`, a seed not used while the benchmark was built.
5. A traced run reports every per-layer metric, and the layer self times
   account for all but :data:`GLUE_LIMIT` of the traced wall time.

Exits 0 when every check passes.  Takes about nine minutes (20 runs).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from oracles import check_ledger, check_losses, check_members, check_topk  # noqa: E402

WORKLOADS = ("device_query", "ingest_index", "tenant_day", "scn_train")
HELD_OUT_SEED = 90210
DETERMINISM_SEED = 3
#: most of a traced round's wall time the benchmark's own loop may take
GLUE_LIMIT = 0.05


def oracle_self_test() -> List[str]:
    """Each checker passes a correct output and fails a corrupted one."""
    problems: List[str] = []

    def expect(label: str, errors: List[str], fail: bool) -> None:
        if bool(errors) != fail:
            problems.append(f"{label}: expected {'failure' if fail else 'pass'}, "
                            f"got {errors or 'pass'}")

    scores = np.array([0.9, 0.5, 0.9, 0.1, 0.7, 0.9], dtype=np.float32)
    visible = np.arange(6)
    # ids 0, 2 and 5 tie at 0.9: any two of them are an exact top-2
    expect("tie class", check_topk(np.array([5, 2]), scores[[5, 2]], scores, visible, 2),
           fail=False)
    expect("canonical", check_topk(np.array([0, 2, 5]), scores[[0, 2, 5]], scores,
                                   visible, 3), fail=False)
    expect("swapped id", check_topk(np.array([0, 4]), scores[[0, 2]], scores,
                                    visible, 2), fail=True)
    expect("swapped id, honest score", check_topk(np.array([0, 4]), scores[[0, 4]],
                                                  scores, visible, 2), fail=True)
    expect("short result", check_topk(np.array([0]), scores[[0]], scores, visible, 2),
           fail=True)
    alive = np.array([0, 1, 3, 4, 5])
    expect("visible members", check_members(np.array([0, 4]), scores[[0, 4]], scores,
                                            alive), fail=False)
    expect("tombstoned id", check_members(np.array([0, 2]), scores[[0, 2]], scores,
                                          alive), fail=True)
    expect("unsorted", check_members(np.array([4, 0]), scores[[4, 0]], scores, alive),
           fail=True)
    row = {"offered": 10, "admitted": 8, "rejected": 2, "evicted": 1,
           "expired": 0, "popped": 7, "depth": 0}
    expect("balanced ledger", check_ledger({"t": row}, {"t": 10}), fail=False)
    expect("unbalanced ledger", check_ledger({"t": dict(row, admitted=9)}, {"t": 10}),
           fail=True)
    expect("ledger vs trace", check_ledger({"t": row}, {"t": 11}), fail=True)
    expect("falling loss", check_losses([1.2, 0.5]), fail=False)
    expect("NaN loss", check_losses([1.2, float("nan")]), fail=True)
    expect("rising loss", check_losses([0.5, 0.6]), fail=True)
    return problems


def benchmark_json_problems() -> List[str]:
    """Differences between ``BENCHMARK.json`` and what the code reports."""
    import run as bench_run
    from workloads import WORKLOADS as CLASSES

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != bench_run.END_TO_END_UNITS:
        problems.append(f"end_to_end {e2e} != run.py {bench_run.END_TO_END_UNITS}")
    layers = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    code = [(n, u, b) for n, u, b, _ in tracing.PER_LAYER]
    if layers != code:
        problems.append("per_layer differs from tracing.PER_LAYER")
    names = sorted(w["name"] for w in spec["workloads"])
    if names != sorted(CLASSES) or set(names) != set(WORKLOADS):
        problems.append(f"workloads {names} != {sorted(CLASSES)}")
    return problems


def run(
    workload: str, seed: int, seconds: float, *extra: str, trace: int = 0
) -> Tuple[int, Dict, str]:
    """One benchmark process: (exit code, last-line JSON, stdout)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
         *extra],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        final = {}
    return proc.returncode, final, proc.stdout + proc.stderr


def results_of(stdout: str) -> Dict[str, str]:
    """The ``result <name> = <value> <unit>`` lines, values as printed."""
    out = {}
    for line in stdout.splitlines():
        if line.startswith("result "):
            name, _, rest = line[len("result "):].partition(" = ")
            out[name] = rest
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    problems = benchmark_json_problems()
    print(f"BENCHMARK.json: {'matches' if not problems else problems}", flush=True)
    oracle_problems = oracle_self_test()
    print(f"oracle self-test: {'ok' if not oracle_problems else oracle_problems}",
          flush=True)
    problems += oracle_problems

    for workload in args.workloads.split(","):
        code, final, text = run(workload, DETERMINISM_SEED, args.seconds, "--corrupt")
        ok = code != 0 and final.get("correct") is False
        print(f"{workload}: corrupted run {'fails' if ok else 'DID NOT FAIL'} "
              f"(exit {code})", flush=True)
        if not ok:
            problems.append(f"{workload}: corrupted run exit {code}\n{text}")

        first = run(workload, DETERMINISM_SEED, args.seconds)
        second = run(workload, DETERMINISM_SEED, args.seconds)
        a, b = results_of(first[2]), results_of(second[2])
        same = first[0] == second[0] == 0 and a == b and bool(a)
        print(f"{workload}: results at seed {DETERMINISM_SEED} "
              f"{'repeat exactly' if same else 'DIFFER'}", flush=True)
        if not same:
            problems.append(f"{workload}: runs differ\n{a}\n{b}\n{first[2]}")

        code, final, text = run(workload, HELD_OUT_SEED, args.seconds)
        ok = code == 0 and final.get("correct") is True
        print(f"{workload}: held-out seed {HELD_OUT_SEED} "
              f"{'passes' if ok else 'FAILS'}", flush=True)
        if not ok:
            problems.append(f"{workload}: held-out seed failed\n{text}")

        code, final, text = run(workload, DETERMINISM_SEED, args.seconds, trace=1)
        metrics = final.get("metrics", {})
        glue = metrics.get("trace.glue_frac", {}).get("value", 1.0)
        ok = code == 0 and list(metrics) == [m[0] for m in tracing.PER_LAYER] \
            and glue <= GLUE_LIMIT
        print(f"{workload}: traced run {'ok' if ok else 'BAD'}, layers account "
              f"for {1 - glue:.1%} of traced wall time", flush=True)
        if not ok:
            problems.append(f"{workload}: traced run\n{text}")

    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
