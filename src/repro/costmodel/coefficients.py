"""Observed per-operation cost coefficients (§IV-D).

"To derive the coefficient for each operation, the total time spent on
that operation is divided by the number of times that operation was
applied."  Coefficients are *observational*: they fold together CPU
speed, core count, memory behaviour and expansion order on the CPU side,
and tile/occupancy effects on the GPU side — and they drift as the body
distribution evolves, which is exactly why the balancer keeps re-observing
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernels.base import EXPANSION_OPS
from repro.util.timing import TimerRegistry

__all__ = ["ObservedCoefficients"]


@dataclass
class ObservedCoefficients:
    """Store of observed coefficients for CPU ops and the GPU P2P.

    Each observation replaces the stored coefficient: the paper re-derives
    the coefficients every step.
    """

    cpu: dict[str, float] = field(default_factory=dict)
    gpu_p2p: float = 0.0
    steps_observed: int = 0

    def update_from_registry(self, cpu_registry: TimerRegistry, gpu_p2p_coefficient: float) -> None:
        """Fold one time step's observed times/counts into the store.

        ``gpu_p2p_coefficient`` follows the paper: the *maximum* kernel
        time over all GPUs divided by the total P2P count over all GPUs —
        a measure of the whole GPU system.
        """
        for op in EXPANSION_OPS:
            timer = cpu_registry.timers.get(op)
            if timer is None or timer.count == 0:
                continue
            self.cpu[op] = timer.coefficient
        if gpu_p2p_coefficient > 0:
            self.gpu_p2p = gpu_p2p_coefficient
        self.steps_observed += 1

    def cpu_coefficient(self, op: str) -> float:
        return self.cpu.get(op, 0.0)

    @property
    def ready(self) -> bool:
        """True once every core op has been observed at least once."""
        return self.steps_observed > 0 and all(
            self.cpu.get(op, 0.0) > 0 for op in ("P2M", "M2L", "L2P")
        )

    def as_dict(self) -> dict[str, float]:
        out = dict(self.cpu)
        out["P2P"] = self.gpu_p2p
        return out
