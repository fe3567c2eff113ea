"""Telemetry: tracing spans, a metrics registry, and cost-model drift.

The paper's contribution is a feedback loop — observed per-op coefficients
(§IV-D) drive a three-state balancer (§VII-B) — and this package is the
instrumentation that makes the loop *watchable*:

* :mod:`repro.obs.trace` — hierarchical wall-clock spans plus simulated
  per-worker scheduler lanes, exported as Chrome/Perfetto trace-event JSON
  (open ``trace.json`` at https://ui.perfetto.dev);
* :mod:`repro.obs.metrics` — counters and gauges with
  Prometheus-style text exposition and JSON snapshots;
* :mod:`repro.obs.drift` — per-step predicted-vs-observed compute time,
  coefficient trajectories, and CPU/GPU imbalance;
* :mod:`repro.obs.ledger` — the durable flight recorder: append-only
  JSONL :class:`~repro.obs.ledger.RunRecord` trajectory across runs,
  benchmarks, and PRs;
* :mod:`repro.obs.critpath` — DAG critical path, per-stage slack, and
  worker idle attribution over measured engine intervals ("why was this
  step slow?", surfaced as ``python -m repro report``);
* :mod:`repro.obs.regress` — tolerance-banded perf-regression checks
  over the ledger trajectory (the CI ``regression-check`` gate).

:class:`Telemetry` bundles the three so a single optional parameter
threads through the driver, executor, balancer, and caches.  The shared
:data:`NULL_TELEMETRY` instance is the disabled default: its tracer
refuses every event up front and its registry/trackers are plain cheap
objects, so instrumented hot paths cost a dict hit and a branch
(``benchmarks/test_bench_obs_overhead.py`` holds this under 2% of a
reference step loop).
"""

from __future__ import annotations

from repro.obs.critpath import CritPathReport
from repro.obs.drift import DriftSample, DriftTracker, RuntimeSample
from repro.obs.ledger import RunLedger, RunRecord
from repro.obs.metrics import Counter, Gauge, MetricsRegistry
from repro.obs.regress import RegressionVerdict, check_regression
from repro.obs.trace import REAL_PID, SIM_PID, WALL_PID, Span, Tracer

__all__ = [
    "Counter",
    "CritPathReport",
    "DriftSample",
    "DriftTracker",
    "Gauge",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "REAL_PID",
    "RegressionVerdict",
    "RunLedger",
    "RunRecord",
    "RuntimeSample",
    "SIM_PID",
    "Span",
    "Telemetry",
    "Tracer",
    "WALL_PID",
    "check_regression",
]


class Telemetry:
    """One tracer + one metrics registry + one drift tracker.

    ``Telemetry()`` builds a fully *enabled* bundle; pass
    ``enabled=False`` (or use :data:`NULL_TELEMETRY`) for the no-op
    variant that instrumented code can call unconditionally.
    """

    __slots__ = ("tracer", "metrics", "drift", "enabled")

    def __init__(
        self,
        *,
        enabled: bool = True,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        drift: DriftTracker | None = None,
    ) -> None:
        self.enabled = enabled
        self.tracer = tracer if tracer is not None else Tracer(enabled=enabled)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.drift = drift if drift is not None else DriftTracker()

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        state = "enabled" if self.enabled else "disabled"
        return f"Telemetry({state}, {len(self.tracer)} events, {len(self.metrics)} metrics)"


#: shared disabled bundle — the default wherever telemetry is optional
NULL_TELEMETRY = Telemetry(enabled=False)
