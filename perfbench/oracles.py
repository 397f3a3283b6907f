"""Output checks the benchmark computes itself, outside the timed phase.

Each checker returns a list of error strings; an empty list means the
output is correct.  The checkers take plain arrays and dicts, never a
device, so the negative self-test can hand them corrupted copies.

Scores are float32 sigmoid outputs in ``[0, 1]``.  The program and the
oracle run the same SCN on the same rows but on different batch
shapes, so BLAS may sum in another order: scores are compared to
:data:`SCORE_ATOL`.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

import numpy as np

#: absolute tolerance on an SCN score (a float32 in [0, 1]; ~100 ulp at 1.0)
SCORE_ATOL = 1e-5


def canonical_topk(scores: np.ndarray, visible: np.ndarray, k: int) -> np.ndarray:
    """Ids of the exact top-``k`` of ``scores[visible]`` in canonical
    ``(-score, id)`` order; ``scores`` is indexed by global id."""
    visible = np.asarray(visible, dtype=np.int64)
    order = np.lexsort((visible, -scores[visible].astype(np.float64)))
    return visible[order[:k]]


def check_topk(
    ids: np.ndarray,
    scores: np.ndarray,
    oracle_scores: np.ndarray,
    visible: np.ndarray,
    k: int,
) -> List[str]:
    """A returned top-K against the exhaustive oracle over ``visible``.

    The result must hold ``min(k, |visible|)`` distinct visible ids,
    each reported with its oracle score, best first, and its scores
    must equal the canonical oracle top-K's position by position.
    Within a tie class at the K-th score any member is an exact answer,
    so ids are compared through their scores, not one by one.
    """
    errors = check_members(ids, scores, oracle_scores, visible)
    if errors:
        return errors
    want = min(k, len(visible))
    if len(ids) != want:
        return [f"returned {len(ids)} ids, expected {want}"]
    expected = oracle_scores[canonical_topk(oracle_scores, visible, want)]
    gap = np.abs(np.sort(scores)[::-1] - expected)
    if gap.size and float(gap.max()) > SCORE_ATOL:
        worst = int(gap.argmax())
        return [
            f"rank {worst}: score {float(np.sort(scores)[::-1][worst]):.7f} "
            f"but the oracle's top-K has {float(expected[worst]):.7f}"
        ]
    return []


def check_members(
    ids: np.ndarray,
    scores: np.ndarray,
    oracle_scores: np.ndarray,
    visible: np.ndarray,
) -> List[str]:
    """Integrity of any result, exact or approximate (a cache hit, a
    probed query): distinct visible ids, each with its oracle score,
    best first."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if len(ids) != len(scores):
        return [f"{len(ids)} ids but {len(scores)} scores"]
    if len(ids) == 0:
        return ["empty result"]
    if len(np.unique(ids)) != len(ids):
        return ["duplicate ids in the result"]
    if not np.all(np.isfinite(scores)):
        return ["non-finite score"]
    live = np.isin(ids, visible)
    if not live.all():
        return [f"id {int(ids[~live][0])} is not visible (tombstoned or absent)"]
    gap = np.abs(scores - oracle_scores[ids])
    if float(gap.max()) > SCORE_ATOL:
        bad = int(gap.argmax())
        return [
            f"id {int(ids[bad])} reported score {scores[bad]:.7f}, "
            f"oracle {float(oracle_scores[ids[bad]]):.7f}"
        ]
    if np.any(np.diff(scores) > SCORE_ATOL):
        return ["scores are not in descending order"]
    return []


def recall(ids: np.ndarray, oracle_ids: np.ndarray) -> float:
    """Share of the oracle's top-K ids the result contains."""
    return len(set(np.asarray(ids).tolist()) & set(oracle_ids.tolist())) / len(
        oracle_ids
    )


def check_ledger(
    ledger: Dict[str, Dict[str, int]], offered: Dict[str, int]
) -> List[str]:
    """Every tenant's admission ledger balances exactly at day end.

    ``offered`` is counted by the benchmark from the generated trace.
    The ledger must account for each offered arrival exactly once
    (admitted + rejected), and each admitted one as popped, evicted or
    expired, with nothing left queued.
    """
    errors: List[str] = []
    for tenant, want in sorted(offered.items()):
        row = ledger.get(tenant)
        if row is None:
            errors.append(f"{tenant}: no ledger row")
            continue
        shed = row["evicted"] + row["expired"]
        if row["offered"] != want:
            errors.append(f"{tenant}: ledger offered {row['offered']} != trace {want}")
        if row["admitted"] + row["rejected"] != want:
            errors.append(
                f"{tenant}: admitted {row['admitted']} + rejected "
                f"{row['rejected']} != offered {want}"
            )
        if row["popped"] + shed + row["depth"] != row["admitted"]:
            errors.append(
                f"{tenant}: popped {row['popped']} + shed {shed} + queued "
                f"{row['depth']} != admitted {row['admitted']}"
            )
        if row["depth"] != 0:
            errors.append(f"{tenant}: {row['depth']} queries still queued")
    return errors


def check_losses(losses: Sequence[float]) -> List[str]:
    """Training losses are finite and the last epoch beats the first."""
    if len(losses) < 2:
        return [f"need at least two epochs of loss, got {len(losses)}"]
    if not all(math.isfinite(v) for v in losses):
        return [f"non-finite loss in {list(losses)}"]
    if not losses[-1] < losses[0]:
        return [f"final loss {losses[-1]:.4f} is not below the first {losses[0]:.4f}"]
    return []
