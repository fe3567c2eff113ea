"""Deterministic chaos harness: seeded fault injection into engine tasks.

A :class:`FaultPlan` is armed on an :class:`~repro.runtime.engine.
ExecutionEngine` via ``engine.install_fault_plan(plan)``; the engine then
calls ``plan.hook(label, attempt)`` immediately *before* each task body.
Because the hook fires before any task work, an injected raise never
leaves partial state behind, so a retried attempt recomputes exactly what
the fault-free execution would have — the foundation of the
bitwise-identical chaos property tests.

Thread-level fault kinds (the :class:`~repro.runtime.engine.ExecutionEngine`
matrix):

* ``"raise"`` — throw :class:`InjectedFault`; the engine's retry policy
  (for retryable tasks) or graceful serial degradation (for merges)
  absorbs it;
* ``"delay"`` — sleep ``delay_s`` to perturb thread interleavings, which
  must not perturb results;
* ``"nan"`` — run a caller-supplied ``action`` callable (e.g. poison one
  leaf's multipole coefficients) to exercise the numeric guardrails.

Process-level fault kinds (the :class:`~repro.runtime.shards.ProcessEngine`
matrix — the plan is pickled into each worker with the run command, and
the worker calls ``plan.hook(label, attempt, shard=me, pipe=conn)`` at
named stage barriers):

* ``"kill"`` — SIGKILL the calling worker process (a crash the shard
  supervisor must detect via pipe EOF and repair by respawn);
* ``"stall"`` — sleep ``delay_s`` without heartbeating, simulating a
  wedged worker that only the supervisor's read deadline can surface;
* ``"pipe_drop"`` — close the worker's control pipe, simulating a
  severed transport while the process itself keeps computing.

The optional ``shard`` field targets one worker; thread-engine hooks pass
``shard=None``, so shard-targeted specs never fire there (and
:meth:`ExecutionEngine.install_fault_plan` rejects process kinds
outright — a ``"kill"`` on a thread would take the whole interpreter
down).  Everything is deterministic given the plan: specs match task
labels by substring, fire on attempts ``< fire_attempts``, and stop
after ``max_fires`` total firings.  ``plan.fired`` records every firing
for test assertions; the plan is thread-safe (hooks run on worker
threads) and picklable (firing counts are per-process once shipped to a
shard worker — use ``fire_attempts`` for cross-respawn semantics, since
the run-attempt index survives the respawn while counts do not).
"""

from __future__ import annotations

import os
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "PROCESS_FAULT_KINDS",
    "THREAD_FAULT_KINDS",
]

#: kinds injected into thread-engine task bodies
THREAD_FAULT_KINDS = ("raise", "delay", "nan")

#: kinds injected into shard worker processes (ProcessEngine chaos seams)
PROCESS_FAULT_KINDS = ("kill", "stall", "pipe_drop")


class InjectedFault(RuntimeError):
    """Raised by a ``"raise"`` fault spec; always deliberate."""


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule.

    ``match`` is a substring tested against the task label.  The spec
    fires while the task's attempt index is ``< fire_attempts`` (so the
    default 1 means "fail the first attempt, let the retry succeed") and
    while the spec's total firing count is ``< max_fires``.  ``shard``
    restricts a process-level spec to one worker; ``None`` matches any.
    """

    kind: str  # "raise" | "delay" | "nan" | "kill" | "stall" | "pipe_drop"
    match: str
    fire_attempts: int = 1
    max_fires: int | None = None
    delay_s: float = 0.001
    action: Callable[[], None] | None = None
    shard: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in THREAD_FAULT_KINDS + PROCESS_FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind == "nan" and self.action is None:
            raise ValueError("'nan' faults need an action callable")
        if self.fire_attempts < 1:
            raise ValueError("fire_attempts must be >= 1")


@dataclass
class FaultPlan:
    """An ordered collection of :class:`FaultSpec` rules.

    First matching spec wins per hook call.  ``fired`` accumulates
    ``(kind, label, attempt)`` tuples.
    """

    faults: list[FaultSpec] = field(default_factory=list)
    fired: list[tuple[str, str, int]] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[int, int] = {}

    def __getstate__(self) -> dict:
        # the lock cannot cross a process boundary; firing counts travel
        # so max_fires keeps its meaning within the receiving process
        return {
            "faults": self.faults,
            "fired": list(self.fired),
            "counts": dict(self._counts),
        }

    def __setstate__(self, state: dict) -> None:
        self.faults = state["faults"]
        self.fired = state["fired"]
        self._counts = state["counts"]
        self._lock = threading.Lock()

    def hook(
        self,
        label: str,
        attempt: int,
        *,
        shard: int | None = None,
        pipe=None,
    ) -> None:
        """Engine callback; raises/delays/acts/kills per the matching spec.

        Thread engines call ``hook(label, attempt)``; shard workers add
        ``shard`` (their id, so shard-targeted specs discriminate) and
        ``pipe`` (their control connection, the ``"pipe_drop"`` target).
        """
        for i, spec in enumerate(self.faults):
            if spec.match not in label or attempt >= spec.fire_attempts:
                continue
            if spec.shard is not None and spec.shard != shard:
                continue
            with self._lock:
                count = self._counts.get(i, 0)
                if spec.max_fires is not None and count >= spec.max_fires:
                    continue
                self._counts[i] = count + 1
                self.fired.append((spec.kind, label, attempt))
            if spec.kind == "raise":
                raise InjectedFault(
                    f"injected fault in task {label!r} (attempt {attempt})"
                )
            if spec.kind in ("delay", "stall"):
                time.sleep(spec.delay_s)
            elif spec.kind == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif spec.kind == "pipe_drop":
                if pipe is not None:
                    pipe.close()
            else:  # "nan"
                spec.action()
            return
