"""Baseline gate: the combined scorecard is byte-identical to the pin.

Builds the combined perf-gate scorecard — all seven legs, every leaf
CI pins — and requires its canonical JSON to equal the checked-in
``benchmarks/results/baseline_scorecard.json`` byte for byte.  A
host-speed change to the simulator must leave every leaf untouched;
an intended model change regenerates the baseline explicitly with
``benchmarks/perf_gate.py --write-baseline``.
"""

import json
import sys
from pathlib import Path

from repro.serving.scorecard import compare_scorecards
from repro.sim import fastpath

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import perf_gate  # noqa: E402


def _canonical(card) -> str:
    return json.dumps(card, indent=2, sort_keys=True)


def test_scorecard_matches_checked_in_baseline():
    """The scorecard is the baseline CI diffs against, byte for byte."""
    baseline_path = (
        Path(perf_gate.__file__).resolve().parent
        / "results" / "baseline_scorecard.json"
    )
    baseline = json.loads(baseline_path.read_text())
    fastpath.clear_tables()
    card = perf_gate.build_combined_scorecard()
    if _canonical(card) != _canonical(baseline):
        drifts = compare_scorecards(baseline, card, tolerance=0.0, atol=0.0)
        listed = "\n".join(
            f"  {d.status}: {d.key}: {d.baseline!r} -> {d.current!r}"
            for d in drifts
        )
        raise AssertionError(
            f"{len(drifts)} scorecard leaves drifted from the baseline:\n"
            f"{listed}"
        )
