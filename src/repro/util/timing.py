"""Timers used by the cost model, and the one solve deadline.

The paper derives per-operation *observed coefficients* by accumulating,
per FMM operation, the total time spent and the number of applications
(§IV-D).  :class:`OpTimer` is exactly that accumulator.  Times fed into an
``OpTimer`` may come either from a real wall clock or from the machine
model's simulated clock — the cost model does not care.

:class:`Deadline` is the wall-clock budget of one solve: created once by
whoever owns the budget (the serve worker, the simulation driver), passed
as one argument down ``solve`` → dispatcher → back end, and checked at
stage boundaries by whichever back end runs (DESIGN.md §11).  Every
deadline reads the module's :data:`clock`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["Deadline", "OpTimer", "SolveDeadlineError", "TimerRegistry", "clock"]

#: the seconds every :class:`Deadline` reads, looked up at each read so a
#: test can drive it
clock = time.perf_counter


class SolveDeadlineError(RuntimeError):
    """A solve ran out of its wall-clock budget; it produced no result.

    ``phase`` names the stage boundary that noticed.  Deliberately not a
    graph or shard *execution* error: the degrade ladder must not answer
    "out of time" by re-running the whole solve serially.
    """

    def __init__(self, deadline_s: float, phase: str) -> None:
        super().__init__(
            f"solve deadline of {deadline_s:.3f}s expired during {phase}"
        )
        self.deadline_s = deadline_s
        self.phase = phase


class Deadline:
    """Absolute expiry of a ``seconds`` budget that starts now.

    ``seconds <= 0`` is an already-expired deadline (a request that spent
    its budget queued).  Back ends poll :meth:`check` at stage boundaries
    and use :meth:`remaining` to bound their waits.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self._expires_at = clock() + self.seconds

    def remaining(self) -> float:
        """Seconds left (negative once expired)."""
        return self._expires_at - clock()

    def check(self, phase: str) -> None:
        """Raise :class:`SolveDeadlineError` naming ``phase`` if expired."""
        if self.remaining() <= 0.0:
            raise SolveDeadlineError(self.seconds, phase)


@dataclass
class OpTimer:
    """Accumulates total time and application count for one FMM operation.

    ``coefficient`` is the observed per-application cost of §IV-D:
    total time divided by total count.
    """

    name: str
    total_time: float = 0.0
    count: int = 0

    def add(self, seconds: float, applications: int = 1) -> None:
        if seconds < 0:
            raise ValueError(f"negative time {seconds!r} for op {self.name}")
        if applications < 0:
            raise ValueError(f"negative count {applications!r} for op {self.name}")
        self.total_time += seconds
        self.count += applications

    @property
    def coefficient(self) -> float:
        """Observed seconds per application (0 when never applied)."""
        if self.count == 0:
            return 0.0
        return self.total_time / self.count

    def reset(self) -> None:
        self.total_time = 0.0
        self.count = 0


@dataclass
class TimerRegistry:
    """A named collection of :class:`OpTimer` objects.

    One registry is kept per compute device class (CPU pool, GPU pool) so
    coefficients reflect the device that actually executed the operation.
    """

    timers: dict[str, OpTimer] = field(default_factory=dict)

    def timer(self, name: str) -> OpTimer:
        if name not in self.timers:
            self.timers[name] = OpTimer(name)
        return self.timers[name]

    def add(self, name: str, seconds: float, applications: int = 1) -> None:
        self.timer(name).add(seconds, applications)

    def coefficient(self, name: str) -> float:
        return self.timer(name).coefficient

    def coefficients(self) -> dict[str, float]:
        return {name: t.coefficient for name, t in self.timers.items()}

    def reset(self) -> None:
        for t in self.timers.values():
            t.reset()
