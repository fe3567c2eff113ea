"""Balancer tuning knobs with the paper's §VII-B defaults."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BalancerConfig"]


@dataclass(frozen=True)
class BalancerConfig:
    """Thresholds and ranges of the load-balancing workflow.

    The paper's values are absolute (0.15 s gap gate, 5 % degradation
    gate) on ~1 s steps; scaled-down experiments may pass a fractional
    gap gate instead via ``gap_threshold_frac``.
    """

    #: leave SEARCH / trigger FGO when |T_CPU - T_GPU| exceeds this (seconds)
    gap_threshold_s: float = 0.15
    #: if set, the gap gate becomes max(gap_threshold_s, frac * compute time)
    gap_threshold_frac: float | None = None
    #: OBSERVATION acts when compute time degrades beyond this fraction of best
    degradation_tolerance: float = 0.05
    #: S search range
    s_min: int = 8
    s_max: int = 4096
    #: multiplicative step of the INCREMENTAL state (S <- S * (1 ± step))
    incremental_step: float = 0.10
    #: binary-search iteration cap ("typically persists for fewer than 15")
    search_max_steps: int = 15
    #: FGO: fraction of leaves modified per round, and the round cap
    fgo_batch_frac: float = 0.02
    fgo_max_rounds: int = 12
    #: master switch for FineGrainedOptimize (Fig. 10 runs one simulation
    #: with it and one without)
    fgo_enabled: bool = True
    #: S-oscillation watchdog (DESIGN.md §11): in the INCREMENTAL state,
    #: if the last ``watchdog_window`` S values flip direction at least
    #: ``watchdog_flips`` times (collapse/pushdown flip-flop), force the
    #: OBSERVATION state instead of thrashing the tree
    watchdog_enabled: bool = True
    watchdog_window: int = 6
    watchdog_flips: int = 3

    def gap_gate(self, compute_time: float) -> float:
        """Effective gap threshold for the current time scale."""
        if self.gap_threshold_frac is not None:
            return self.gap_threshold_frac * compute_time
        return self.gap_threshold_s

    def __post_init__(self) -> None:
        frac = self.gap_threshold_frac
        if frac is not None and not 0 < frac < math.inf:
            raise ValueError(
                f"gap_threshold_frac must be positive and finite (or None), got {frac}"
            )
        if self.s_min < 1 or self.s_max < self.s_min:
            raise ValueError("require 1 <= s_min <= s_max")
        if not 0 < self.degradation_tolerance < 1:
            raise ValueError("degradation_tolerance must be in (0, 1)")
        if not 0 < self.incremental_step < 1:
            raise ValueError("incremental_step must be in (0, 1)")
        if self.watchdog_window < 3:
            raise ValueError("watchdog_window must be >= 3 steps")
        if self.watchdog_flips < 1:
            raise ValueError("watchdog_flips must be >= 1")
