"""Numeric guardrail: a cheap NaN/Inf health check.

The check exploits IEEE-754 propagation: ``np.sum`` of an array is
non-finite iff the array contains a NaN or Inf, so one reduction (a few
hundred microseconds even at 50k bodies) replaces an elementwise
``np.isfinite(...).all()`` scan.  The simulation driver runs it on every
FMM acceleration array (the <2% overhead budget is gated in
``benchmarks/test_bench_resilience.py``).

On a tripped check the driver *quarantines* the step (DESIGN.md §11):
non-finite acceleration rows are recomputed through the direct scalar
oracle, the tree is scheduled for a from-scratch rebuild, and the
balancer is reset to Search — with ``numeric_quarantine_total``
incremented so operators can see it happened.
"""

from __future__ import annotations

import numpy as np

__all__ = ["check_finite"]


def check_finite(arr: np.ndarray | None) -> bool:
    """True iff every element of ``arr`` is finite (None/empty pass).

    One O(n) reduction, no temporary boolean array: ``sum`` is non-finite
    iff any input element is (NaN propagates; +inf/-inf either survive or
    combine to NaN).
    """
    if arr is None or arr.size == 0:
        return True
    return bool(np.isfinite(np.sum(arr)))
