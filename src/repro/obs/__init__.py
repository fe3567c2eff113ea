"""Telemetry: tracing spans, a metrics registry, the run ledger.

The paper's feedback loop — observed per-op coefficients (§IV-D) drive a
three-state balancer (§VII-B) — keeps one record of itself: the
balancer's ``decisions``, each step's prediction beside its observation.
This package carries that record out and makes the loop *watchable*:

* :mod:`repro.obs.trace` — hierarchical wall-clock spans plus simulated
  per-worker scheduler lanes, exported as Chrome/Perfetto trace-event JSON
  (open ``trace.json`` at https://ui.perfetto.dev);
* :mod:`repro.obs.metrics` — counters and gauges with
  Prometheus-style text exposition and JSON snapshots;
* :mod:`repro.obs.ledger` — the durable flight recorder: one append-only
  JSONL :class:`~repro.obs.ledger.RunRecord` per simulation run or
  served solve;
* :mod:`repro.obs.critpath` — DAG critical path, per-stage slack, and
  worker idle attribution over measured engine intervals ("why was this
  step slow?", surfaced as ``python -m repro report``).

:class:`Telemetry` bundles the tracer and the registry so a single
optional parameter threads through the driver, executor, balancer, and
caches.  The shared :data:`NULL_TELEMETRY` instance is the disabled
default: its tracer refuses every event up front, so instrumented hot
paths cost a dict hit and a branch (``benchmarks/test_bench_obs_overhead.py``
holds this under 2% of a reference step loop).
"""

from __future__ import annotations

from repro.obs.critpath import CritPathReport
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.trace import REAL_PID, SIM_PID, WALL_PID, Span, Tracer

__all__ = [
    "Counter",
    "CritPathReport",
    "Gauge",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "REAL_PID",
    "RunLedger",
    "RunRecord",
    "SIM_PID",
    "Span",
    "Telemetry",
    "Tracer",
    "WALL_PID",
]


class Telemetry:
    """One tracer + one metrics registry.

    ``Telemetry()`` builds a fully *enabled* bundle; pass
    ``enabled=False`` (or use :data:`NULL_TELEMETRY`) for the no-op
    variant that instrumented code can call unconditionally.
    """

    __slots__ = ("tracer", "metrics", "enabled")

    def __init__(
        self,
        *,
        enabled: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, {len(self.tracer)} events, {len(self.metrics)} metrics)"


#: shared disabled bundle — the default wherever telemetry is optional
NULL_TELEMETRY = Telemetry(enabled=False)
