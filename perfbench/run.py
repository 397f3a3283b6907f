#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one fresh process.

Run it as::

    python3 perfbench/run.py --workload device_query --seed 1 --seconds 10 --trace 0

The workload is played in rounds, each set up from cold and then timed,
until ``--seconds`` of timed work have run (at least the workload's
``min_rounds``).  ``setup_s`` and ``host_ops_per_s`` are medians
over the rounds; ``peak_rss_mb`` is the smallest of their peak resident
sets.  The first
round's outputs are checked against the benchmark's own oracles; every
later round must reproduce them exactly, and ``pass_frac`` is the share
of ops that passed.  The command prints the workload's simulated
results by name and unit, then, as the last line, one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` rounds alternate untraced and traced; the traced rounds
give the per-layer self times and counts (see ``tracing.py``) and the
untraced ones after the first give the tracing overhead.  A JSON artifact with the run
manifest, every round and (traced) every span is written under
``.perfbench/``.  The exit code is 0 only when every check passed.

``--corrupt`` damages the first round's outputs before checking; the
run must then fail (the negative self-test in ``selfcheck.py``).
"""

from __future__ import annotations

import argparse
import os
import sys


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


#: BLAS / OpenMP thread pools are capped at the CPUs this process may use
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    _cap = _nproc()
    _have = os.environ.get(_var, "")
    if not _have.isdigit() or not 0 < int(_have) <= _cap:
        os.environ[_var] = str(_cap)

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

#: the repository root: this file lives in ``<root>/perfbench/``
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "pass_frac": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--corrupt", action="store_true",
        help="damage the first round's outputs; the run must then fail",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import manifest
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    log = tracing.SpanLog()

    rounds = []
    while (
        len(rounds) < workload.min_rounds
        or sum(r["work_s"] for r in rounds) < args.seconds
    ):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        # drop the previous round's state and its reference cycles (the
        # tenancy day's closures alone ~1 GB) untimed, so every round
        # starts from the same heap
        workload.release()
        gc.collect()
        reset_peak_rss()
        with (tracing.installed(log) if traced else nullcontext()):
            with log.span("bench.setup") if traced else nullcontext():
                t0 = time.perf_counter()
                workload.setup()
                setup_s = time.perf_counter() - t0
            with log.span(tracing.ROOT) if traced else nullcontext():
                t0 = time.perf_counter()
                out = workload.round(log)
                work_s = time.perf_counter() - t0
        log.op = -1
        rounds.append({
            "traced": traced,
            "setup_s": setup_s,
            "work_s": work_s,
            "ops": out.ops,
            "ops_per_s": out.ops / work_s,
            "peak_rss_mb": peak_rss_mb(),
            "out": out,
        })

    # ---- correctness, outside every timed phase -----------------------
    first = rounds[0]["out"]
    corruption = workload.corrupt(first) if args.corrupt else None
    failures = {index: message for index, message in workload.check(first)}
    reference = [item.fingerprint() for item in first.items]
    failed = sum(max(1, first.items[i].ops) for i in failures)
    for number, r in enumerate(rounds[1:], start=1):
        items = r["out"].items
        if len(items) != len(reference):
            failures[f"round {number}"] = "different number of outputs"
        for index, item in enumerate(items):
            drifted = index >= len(reference) or item.fingerprint() != reference[index]
            if drifted:
                failures.setdefault(f"round {number} item {index}",
                                    "output differs from the first round")
            if drifted or index in failures:
                failed += max(1, item.ops)
    attempted = sum(r["ops"] for r in rounds)
    failed = min(failed, attempted)
    correct = not failures

    results = workload.results(first)
    if args.workload == "device_query":
        results.update(paper_cells())

    untraced = [r for r in rounds if not r["traced"]]
    metrics = {}
    if args.trace:
        metrics = layer_metrics(workload, log, rounds)
    else:
        values = {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "host_ops_per_s": statistics.median(r["ops_per_s"] for r in untraced),
            # heap fragmentation and collector timing only ever add to a
            # round's peak, so the smallest is the reproducible footprint
            "peak_rss_mb": min(r["peak_rss_mb"] for r in rounds),
            "pass_frac": 1.0 - failed / attempted,
        }
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()
        }

    for name, (value, unit) in sorted(results.items()):
        print(f"result {args.workload}.{name} = {value!r} {unit}")
    for where, message in failures.items():
        print(f"FAIL {where}: {message}")
    if corruption:
        print(f"corrupted: {corruption}")

    artifact = {
        "manifest": manifest.build(args, SRC, Path(__file__).resolve().parent),
        "results": {k: {"value": v, "unit": u} for k, (v, u) in results.items()},
        "metrics": metrics,
        "rounds": [
            {k: v for k, v in r.items() if k != "out"} for r in rounds
        ],
        "failures": {str(k): v for k, v in failures.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        artifact["self_s_by_phase"] = log.self_times_by_root()
        (OUT_DIR / f"{stem}-spans.json").write_text(json.dumps(log.to_json()))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(artifact, indent=1, default=float))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count (VmHWM) for this process."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:  # not Linux: peak_rss_mb falls back to the process peak
        pass


def peak_rss_mb() -> float:
    """Peak resident set size since the last :func:`reset_peak_rss`."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def paper_cells():
    """Scorecard cells within 25% of the paper, and cells marked off."""
    from repro.analysis import scorecard

    counts = scorecard.build_scorecard().counts
    return {
        "paper_cells_within": (float(counts["within"]), "count"),
        "paper_cells_off": (float(counts["off"]), "count"),
    }


def layer_metrics(workload, log, rounds):
    """Per-layer metrics, per traced round of set-up plus work.

    Self times and counts are summed over the traced rounds and divided
    by their number.  ``trace.glue_frac`` is the share of the traced
    wall time spent in the benchmark's own loop, outside every layer
    span; the layer self times account for the rest exactly.
    """
    import tracing

    traced = [r for r in rounds if r["traced"]]
    untraced = [r for r in rounds[1:] if not r["traced"]]
    n = len(traced)
    selfs = log.self_times()
    wall = log.durations("bench.setup") + log.durations(tracing.ROOT)
    counts = dict(log.counts)
    lookups = counts.get("core.cache_lookups", 0.0)
    run_s = log.durations("sim.run")
    derived = {
        "core.cache_hit_ratio": counts.get("core.cache_hits", 0.0) / lookups
        if lookups else 0.0,
        "sim.events_per_s": counts.get("sim.events", 0.0) / run_s if run_s else 0.0,
        "trace.glue_frac": (selfs.get("bench.setup", 0.0) + selfs.get(tracing.ROOT, 0.0))
        / wall,
        "trace.overhead_frac": statistics.median(r["ops_per_s"] for r in untraced)
        / statistics.median(r["ops_per_s"] for r in traced) - 1.0,
        "trace.spans": len(log.spans) / n,
    }
    derived.update(workload.layer_stats(rounds[0]["out"]))
    metrics = {}
    for name, unit, _better, _moves in tracing.PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith("_s"):
            value = selfs.get(name[: -len("_s")], 0.0) / n
        else:
            value = counts.get(name, 0.0) / n
        metrics[name] = {"value": value, "unit": unit}
    return metrics


if __name__ == "__main__":
    sys.exit(main())
