"""Pure helpers: op classification and the per-run summary metrics."""

from __future__ import annotations

import math
import statistics
from typing import Optional

FAILED, INCONCLUSIVE, CONCLUSIVE = "failed", "inconclusive", "conclusive"
BOUND_EXITS = (2, 3)  # input error (the carrier cap lands here) and bound exceeded
TAIL_BEYOND = 10


def classify(rc: Optional[int], error: Optional[str], report: Optional[dict], undecided: bool) -> str:
    """Failed: the op raised or exited 2 or 3.  Inconclusive: failed, or a
    verdict that a bound shaped (``inconclusive_rank``, or a membership
    search that returned None).  Everything else is conclusive."""
    if error is not None or rc in BOUND_EXITS:
        return FAILED
    evidence = (report or {}).get("evidence")
    if undecided or (isinstance(evidence, dict) and evidence.get("inconclusive_rank")):
        return INCONCLUSIVE
    return CONCLUSIVE


def nearest_rank(sorted_values: list, p: float):
    """The nearest-rank p-th percentile of ascending values."""
    return sorted_values[max(1, math.ceil(p * len(sorted_values) / 100)) - 1]


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile whose nearest-rank value still has at
    least ten samples beyond it, or None when there are too few samples."""
    for p in range(100, -1, -1):
        if n - max(1, math.ceil(p * n / 100)) >= TAIL_BEYOND:
            return p
    return None


def verdict_times(times_s: list[float]) -> dict:
    """Median and tail per-op time in ms.  With fewer than eleven ops no
    percentile has ten beyond it; the tail is then the maximum, and the
    stated percentile (100) and sample count say so."""
    ordered = sorted(times_s)
    p = tail_percentile(len(ordered))
    tail = ordered[-1] if p is None else nearest_rank(ordered, p)
    return {
        "p50_ms": statistics.median(ordered) * 1000,
        "tail_ms": tail * 1000,
        "tail_percentile": 100 if p is None else p,
        "samples": len(ordered),
    }


def pass_summary(ops: list[dict]) -> dict:
    """End-to-end numbers of one pass over a workload's op list; ``ops`` are
    the worker's per-op records (elapsed_s, status, correct)."""
    n = len(ops)
    statuses = [o["status"] for o in ops]
    out = verdict_times([o["elapsed_s"] for o in ops])
    out.update(
        wall_s=sum(o["elapsed_s"] for o in ops),
        attempted=n,
        failed=statuses.count(FAILED),
        conclusive_share=statuses.count(CONCLUSIVE) / n,
        failed_share=statuses.count(FAILED) / n,
        wrong_verdicts=sum(1 for o in ops if o["correct"] is False),
    )
    return out
