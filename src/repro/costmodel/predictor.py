"""Time prediction from observed coefficients (§IV-D).

Given a candidate tree configuration (its operation counts M(op)) and the
observed coefficients C(op):

    T_CPU = sum_over_cpu_ops  M(op) * C(op)
    T_GPU = M(P2P) * C(P2P)

"With these predicted times, decisions on whether or not such a tree
modification would be desirable can be made without having to perform a
full FMM solve on the current tree."
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.coefficients import ObservedCoefficients
from repro.kernels.base import EXPANSION_OPS

__all__ = ["TimePrediction", "predict_times"]


@dataclass(frozen=True)
class TimePrediction:
    """Predicted per-step times for one tree configuration."""

    cpu_time: float
    gpu_time: float

    @property
    def compute_time(self) -> float:
        """max(T_CPU, T_GPU) — the quantity the balancer minimizes."""
        return max(self.cpu_time, self.gpu_time)

    @property
    def imbalance(self) -> float:
        return abs(self.cpu_time - self.gpu_time)


def predict_times(op_counts: dict[str, int], coeffs: ObservedCoefficients) -> TimePrediction:
    """Apply the §IV-D prediction to a set of operation counts."""
    cpu = 0.0
    for op in EXPANSION_OPS:
        count = op_counts.get(op, 0)
        if count:
            cpu += count * coeffs.cpu_coefficient(op)
    gpu = op_counts.get("P2P", 0) * coeffs.gpu_p2p
    return TimePrediction(cpu_time=cpu, gpu_time=gpu)
