"""The balancer's settable ranges; its fixed §VII-B thresholds are the
constants of :mod:`repro.balance.controller` and
:mod:`repro.balance.finegrained`."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BalancerConfig"]


@dataclass(frozen=True)
class BalancerConfig:
    """Gap gate and S range of the load-balancing workflow.

    The paper gates on an absolute 0.15 s gap on ~1 s steps; the gate
    here is that fraction of the step's compute time, so it holds at
    every time scale the modeled machine runs.
    """

    #: leave SEARCH / trigger FGO when |T_CPU - T_GPU| exceeds this
    #: fraction of the compute time (the paper's 0.15 s on ~1 s steps)
    gap_threshold_frac: float = 0.15
    #: S search range
    s_min: int = 8
    s_max: int = 4096
    #: master switch for FineGrainedOptimize (Fig. 10 runs one simulation
    #: with it and one without)
    fgo_enabled: bool = True

    def gap_gate(self, compute_time: float) -> float:
        """Effective gap threshold for the current time scale."""
        return self.gap_threshold_frac * compute_time

    def __post_init__(self) -> None:
        frac = self.gap_threshold_frac
        if not 0 < frac < math.inf:
            raise ValueError(
                f"gap_threshold_frac must be positive and finite, got {frac}"
            )
        if self.s_min < 1 or self.s_max < self.s_min:
            raise ValueError("require 1 <= s_min <= s_max")
