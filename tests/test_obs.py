"""Tests for the telemetry subsystem (repro.obs)."""

import json

import numpy as np
import pytest

from repro.balance.config import BalancerConfig
from repro.distributions.generators import compact_plummer
from repro.kernels.laplace import GravityKernel
from repro.machine.spec import system_a
from repro.obs import (
    NULL_TELEMETRY,
    DriftTracker,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.obs.trace import _NULL_SPAN, REAL_PID, SIM_PID, WALL_PID
from repro.costmodel.predictor import TimePrediction
from repro.sim.driver import Simulation, SimulationConfig


# --------------------------------------------------------------------- tracer
class TestTracer:
    def test_span_records_complete_event(self):
        clock = _FakeClock()
        t = Tracer(clock=clock)
        with t.span("outer", step=3):
            clock.advance(2.0)
        (ev,) = t.events
        assert ev["ph"] == "X"
        assert ev["name"] == "outer"
        assert ev["pid"] == WALL_PID
        assert ev["dur"] == pytest.approx(2e6)
        assert ev["args"] == {"step": 3}

    def test_span_nesting_and_timing(self):
        clock = _FakeClock()
        t = Tracer(clock=clock)
        with t.span("parent"):
            clock.advance(1.0)
            with t.span("child"):
                clock.advance(0.5)
            clock.advance(1.0)
        child, parent = t.events  # children close (and record) first
        assert child["name"] == "child" and parent["name"] == "parent"
        # child lies strictly inside the parent's [ts, ts + dur] window
        assert parent["ts"] <= child["ts"]
        assert child["ts"] + child["dur"] <= parent["ts"] + parent["dur"]
        assert parent["dur"] == pytest.approx(2.5e6)
        assert child["dur"] == pytest.approx(0.5e6)

    def test_span_set_attaches_args(self):
        t = Tracer(clock=_FakeClock())
        with t.span("s") as span:
            span.set(result=7)
        assert t.events[0]["args"]["result"] == 7

    def test_disabled_tracer_is_noop(self):
        t = Tracer(enabled=False)
        span = t.span("anything", heavy="args")
        assert span is _NULL_SPAN  # shared singleton: no allocation
        assert t.span("again") is span
        with span:
            span.set(x=1)
        t.instant("event")
        t.counter("S", 5)
        t.add_worker_lanes([("t", 0, 0.0, 1.0)])
        assert len(t) == 0

    def test_counter_and_instant_events(self):
        t = Tracer(clock=_FakeClock())
        t.counter("S", 128, cpu=1.0)
        t.instant("enforce_s", collapses=3)
        counter, instant = t.events
        assert counter["ph"] == "C"
        assert counter["args"] == {"S": 128, "cpu": 1.0}
        assert instant["ph"] == "i"
        assert instant["args"] == {"collapses": 3}

    def test_worker_lanes_layout(self):
        t = Tracer(clock=_FakeClock())
        t.add_worker_lanes(
            [("a", 0, 0.0, 1.0), ("b", 1, 0.0, 0.5)], makespan=1.0
        )
        t.add_worker_lanes([("c", 0, 0.0, 2.0)], makespan=2.0)
        lanes = [e for e in t.events if e["ph"] == "X"]
        assert [e["name"] for e in lanes] == ["a", "b", "c"]
        assert all(e["pid"] == SIM_PID for e in lanes)
        # second batch starts after the first batch's makespan
        assert lanes[2]["ts"] == pytest.approx(1e6)
        # worker threads get metadata names exactly once
        names = [e for e in t.events if e["ph"] == "M"]
        assert {e["args"]["name"] for e in names} == {"worker-0", "worker-1"}

    def test_chrome_trace_round_trips_through_json(self):
        t = Tracer(clock=_FakeClock())
        with t.span("step", step=0):
            t.counter("S", 64)
        doc = json.loads(t.to_json())
        assert isinstance(doc["traceEvents"], list)
        for ev in doc["traceEvents"]:
            assert ev["ph"] in ("X", "C", "i", "M")
            assert isinstance(ev["ts"], (int, float))
            assert "pid" in ev and "tid" in ev

    def test_write(self, tmp_path):
        t = Tracer(clock=_FakeClock())
        with t.span("s"):
            pass
        path = tmp_path / "trace.json"
        t.write(str(path))
        doc = json.loads(path.read_text())
        assert any(e["name"] == "s" for e in doc["traceEvents"])


# -------------------------------------------------------------------- metrics
class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("steps_total", "time steps")
        c.inc()
        c.inc(2)
        assert c.value == 3
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        a = reg.counter("x", labels={"op": "M2L"})
        b = reg.counter("x", labels={"op": "M2L"})
        c = reg.counter("x", labels={"op": "P2M"})
        assert a is b and a is not c
        with pytest.raises(ValueError):
            reg.gauge("x", labels={"op": "M2L"})  # kind mismatch

    def test_gauge(self):
        reg = MetricsRegistry()
        g = reg.gauge("S")
        g.set(128)
        g.inc(2)
        g.dec()
        assert g.value == 129

    def test_histogram_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts == [1, 2, 3]
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "cache hits").inc(5)
        reg.gauge("balancer_S", "leaf cap", labels={"mode": "full"}).set(64)
        h = reg.histogram("step_seconds", "per-step", buckets=(0.5, 1.0))
        h.observe(0.4)
        h.observe(2.0)
        text = reg.to_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 5" in text
        assert 'balancer_S{mode="full"} 64' in text
        assert '# TYPE step_seconds histogram' in text
        assert 'step_seconds_bucket{le="0.5"} 1' in text
        assert 'step_seconds_bucket{le="+Inf"} 2' in text
        assert "step_seconds_sum 2.4" in text
        assert "step_seconds_count 2" in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"] == 1
        assert snap["h"]["count"] == 1


# ---------------------------------------------------------------------- drift
class TestDrift:
    def test_residual_sign(self):
        d = DriftTracker()
        s = d.observe(
            0,
            predicted=TimePrediction(cpu_time=0.9, gpu_time=0.5),
            observed_cpu=1.0,
            observed_gpu=0.4,
        )
        assert s.residual == pytest.approx(0.1)  # under-predicted by 10%
        assert s.imbalance == pytest.approx(0.6)

    def test_unpredicted_steps_counted(self):
        d = DriftTracker()
        assert d.observe(0, predicted=None, observed_cpu=1.0, observed_gpu=1.0) is None
        assert d.unpredicted_steps == 1
        assert len(d) == 0

    def test_summary_and_eventlog(self):
        d = DriftTracker()
        for i in range(3):
            d.observe(
                i,
                predicted=TimePrediction(cpu_time=1.0, gpu_time=0.0),
                observed_cpu=2.0,
                observed_gpu=0.0,
            )
        summary = d.summary()
        assert summary["n_predicted_steps"] == 3
        assert summary["mean_abs_residual"] == pytest.approx(0.5)
        log = d.to_eventlog()
        assert log.column("residual") == pytest.approx([0.5, 0.5, 0.5])

    def test_runtime_residual_math(self):
        d = DriftTracker()
        # engine took twice as long as the schedule simulation predicted
        s = d.observe_runtime(0, simulated=0.5, measured=1.0)
        assert s.residual == pytest.approx(0.5)
        # engine beat the simulated makespan: negative residual
        s = d.observe_runtime(1, simulated=1.2, measured=1.0)
        assert s.residual == pytest.approx(-0.2)
        # degenerate zero measurement must not divide by zero
        assert d.observe_runtime(2, simulated=0.1, measured=0.0).residual == 0.0
        summary = d.summary()
        assert summary["n_runtime_steps"] == 3
        assert summary["runtime_model_residual"] == pytest.approx((0.5 + 0.2) / 3)
        assert len(d.as_dict()["runtime"]) == 3


# ----------------------------------------------------------------- edge cases
class TestTelemetryEdgeCases:
    """Degenerate registries and degraded steps must stay well-defined."""

    def test_runtime_residual_on_empty_tracker(self):
        summary = DriftTracker().summary()
        assert summary["n_predicted_steps"] == 0
        assert summary["n_runtime_steps"] == 0
        assert summary["runtime_model_residual"] == 0.0
        assert summary["mean_abs_residual"] == 0.0
        # json round-trip of the empty as_dict form
        json.dumps(DriftTracker().as_dict())

    def test_empty_registry_snapshot(self):
        reg = MetricsRegistry()
        assert reg.snapshot() == {}
        assert len(reg) == 0
        assert "# " not in reg.to_prometheus() or reg.to_prometheus() == ""

    def test_histogram_snapshot_zero_observations(self):
        reg = MetricsRegistry()
        h = reg.histogram("t", buckets=(0.1, 1.0))
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert all(c == 0 for c in snap["buckets"].values())
        # exposition must still emit every bucket plus +Inf
        lines = h.expose()
        assert sum('le="' in line for line in lines) == 3

    def test_counters_survive_degraded_step(self):
        """A step whose engine graph fails (absorbed by the serial
        fallback) still records its step metrics, and the degradation
        itself is counted."""
        from repro.resilience import FaultPlan, FaultSpec

        telemetry = Telemetry()
        ps = compact_plummer(400, seed=2, total_mass=1.0, velocity_scale=1.5)
        sim = Simulation(
            ps,
            GravityKernel(G=1.0, softening=1e-3),
            system_a().with_resources(n_cores=4, n_gpus=2),
            config=SimulationConfig(dt=1e-4, forces="fmm", n_workers=2, order=2),
            telemetry=telemetry,
        )
        # a non-retryable near-field fold failure on every attempt is
        # unrecoverable (the self-correction task exists at any tree depth)
        plan = FaultPlan([FaultSpec("raise", match="near:self", fire_attempts=99)])
        with sim:
            sim.engine.install_fault_plan(plan)
            try:
                sim.step()
            finally:
                sim.engine.install_fault_plan(None)
            sim.step()  # a healthy step afterwards
        snap = telemetry.metrics.snapshot()
        assert snap["sim_steps_total"] == 2
        assert snap['runtime_degraded_total{solver="laplace"}'] >= 1
        assert sim.solver.degraded_runs >= 1
        # the healthy step fed the runtime-model drift again
        assert telemetry.drift.summary()["n_runtime_steps"] >= 1


# ------------------------------------------------------------ instrumentation
def _run_instrumented(steps=20, n=800, forces="direct", **cfg_kwargs):
    telemetry = Telemetry()
    ps = compact_plummer(n, seed=0, total_mass=1.0, velocity_scale=1.5)
    sim = Simulation(
        ps,
        GravityKernel(G=1.0, softening=1e-3),
        system_a().with_resources(n_cores=6, n_gpus=2),
        config=SimulationConfig(
            dt=1e-4,
            forces=forces,
            strategy="full",
            balancer=BalancerConfig(gap_threshold_frac=0.15, s_min=8, s_max=2048),
            **cfg_kwargs,
        ),
        telemetry=telemetry,
    )
    try:
        sim.run(steps)
    finally:
        sim.close()
    return sim, telemetry


class TestInstrumentedSimulation:
    @pytest.fixture(scope="class")
    def run20(self):
        return _run_instrumented(steps=20, n=800)

    def test_step_spans_present(self, run20):
        _, tel = run20
        spans = [e for e in tel.tracer.events if e["ph"] == "X" and e["pid"] == WALL_PID]
        names = [e["name"] for e in spans]
        assert names.count("step") == 20
        for required in ("tree-build", "far-field", "near-field", "physics", "balancer"):
            assert required in names

    def test_worker_lanes_present(self, run20):
        _, tel = run20
        lanes = [e for e in tel.tracer.events if e.get("pid") == SIM_PID and e["ph"] == "X"]
        assert lanes
        workers = {e["tid"] for e in lanes}
        assert workers <= set(range(6))
        # lanes never overlap within one worker
        by_worker = {}
        for e in sorted(lanes, key=lambda e: (e["tid"], e["ts"])):
            prev_end = by_worker.get(e["tid"], 0.0)
            assert e["ts"] >= prev_end - 1e-6
            by_worker[e["tid"]] = e["ts"] + e["dur"]

    def test_metrics_capture_the_loop(self, run20):
        _, tel = run20
        snap = tel.metrics.snapshot()
        assert snap["sim_steps_total"] == 20
        assert any(k.startswith("balancer_transitions_total") for k in snap)
        # a list lookup is a hit or a rebuild (DESIGN.md §12)
        assert snap["lists_rebuilt_total"] >= 1
        assert snap["listcache_hits_total"] >= 1
        assert any(k.startswith("fmm_op_coefficient_seconds") for k in snap)

    def test_drift_produced_by_short_run(self, run20):
        _, tel = run20
        summary = tel.drift.summary()
        assert summary["n_predicted_steps"] >= 10
        # the §IV-D model should predict within tens of percent, not be junk
        assert summary["mean_abs_residual"] < 0.5
        assert tel.drift.coefficient_history  # trajectories were recorded

    def test_trace_json_valid(self, run20, tmp_path):
        _, tel = run20
        path = tmp_path / "t.json"
        tel.tracer.write(str(path))
        doc = json.loads(path.read_text())
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "ts" in ev and "pid" in ev and "tid" in ev

    def test_disabled_telemetry_records_nothing(self):
        before_drift = len(NULL_TELEMETRY.drift)
        ps = compact_plummer(200, seed=0, total_mass=1.0, velocity_scale=1.5)
        sim = Simulation(
            ps,
            GravityKernel(G=1.0, softening=1e-3),
            system_a().with_resources(n_cores=4, n_gpus=2),
            config=SimulationConfig(dt=1e-4, forces="direct", strategy="full"),
        )
        sim.run(2)
        assert sim.telemetry is NULL_TELEMETRY
        assert len(NULL_TELEMETRY.tracer) == 0
        assert len(NULL_TELEMETRY.drift) == before_drift


class TestEngineInstrumentation:
    """An FMM run through the real thread-pool engine exports its worker
    timelines as a third Perfetto process and feeds the runtime-model
    drift metric (simulated makespan vs. measured wall-clock)."""

    @pytest.fixture(scope="class")
    def engine_run(self):
        return _run_instrumented(steps=5, n=500, forces="fmm", n_workers=2)

    def test_real_worker_lanes_present(self, engine_run):
        _, tel = engine_run
        lanes = [
            e
            for e in tel.tracer.events
            if e.get("pid") == REAL_PID and e["ph"] == "X" and e.get("cat") == "engine"
        ]
        assert lanes, "engine runs exported no real worker intervals"
        assert {e["tid"] for e in lanes} <= {0, 1}
        # lanes never overlap within one worker thread
        by_worker = {}
        for e in sorted(lanes, key=lambda e: (e["tid"], e["ts"])):
            prev_end = by_worker.get(e["tid"], 0.0)
            assert e["ts"] >= prev_end - 1e-6
            by_worker[e["tid"]] = e["ts"] + e["dur"]
        # engine task labels, not scheduler op names
        names = {e["name"] for e in lanes}
        assert any(name.startswith("M2L") for name in names)
        assert any(name.startswith("near") for name in names)

    def test_real_workers_process_named(self, engine_run):
        _, tel = engine_run
        doc = json.loads(tel.tracer.to_json())
        meta = {
            ev["pid"]: ev["args"]["name"]
            for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
        }
        assert meta.get(REAL_PID) == "real workers"
        assert meta.get(SIM_PID) == "simulated scheduler"

    def test_runtime_model_residual_tracked(self, engine_run):
        _, tel = engine_run
        summary = tel.drift.summary()
        assert summary["n_runtime_steps"] == 5
        assert np.isfinite(summary["runtime_model_residual"])
        snap = tel.metrics.snapshot()
        assert any(k.startswith("runtime_model_residual") for k in snap)
        assert any(k.startswith("runtime_engine_utilization") for k in snap)

    def test_real_coefficients_observed(self, engine_run):
        sim, tel = engine_run
        coeffs = sim.executor.real_coeffs.as_dict()
        assert coeffs["M2L"] > 0.0
        snap = tel.metrics.snapshot()
        assert any("cpu-real" in k for k in snap)




# ------------------------------------------------------- tracer thread-safety
class TestTracerThreadSafety:
    """Concurrent spans from engine workers must nest per worker lane and
    never interleave parent ids across threads."""

    def _spans_by_thread(self, tracer):
        lanes = {}
        for ev in tracer.events:
            if ev["ph"] == "X":
                lanes.setdefault(ev["tid"], []).append(ev)
        return lanes

    def test_engine_worker_spans_nest_per_lane(self):
        from repro.runtime.engine import ExecutionEngine, TaskGraphBuilder

        tracer = Tracer()

        def work(i):
            def fn():
                with tracer.span("outer", task=i):
                    with tracer.span("inner", task=i):
                        pass

            return fn

        g = TaskGraphBuilder()
        for i in range(64):
            g.add(work(i), label=f"t{i}")
        with ExecutionEngine(n_workers=4) as eng:
            eng.run(g)

        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert len(spans) == 128
        by_id = {e["span_id"]: e for e in spans}
        assert len(by_id) == 128, "span ids collided across threads"
        for ev in spans:
            parent = ev.get("parent_id")
            if ev["name"] == "inner":
                # the parent is the same task's outer span, on the SAME lane
                assert parent is not None
                assert by_id[parent]["name"] == "outer"
                assert by_id[parent]["tid"] == ev["tid"]
                assert by_id[parent]["args"]["task"] == ev["args"]["task"]
            else:
                assert parent is None  # outer spans never adopt another
                # thread's open span as parent

    def test_engine_worker_spans_get_named_lanes(self):
        from repro.runtime.engine import ExecutionEngine, TaskGraphBuilder

        tracer = Tracer()
        g = TaskGraphBuilder()
        for i in range(16):
            g.add(
                (lambda j: lambda: tracer.span("s", i=j).__enter__().__exit__())(i),
                label=f"t{i}",
            )
        with ExecutionEngine(n_workers=4) as eng:
            eng.run(g)
        named = {
            e["tid"]
            for e in tracer.events
            if e["ph"] == "M" and e["name"] == "thread_name" and e["pid"] == WALL_PID
        }
        used = {e["tid"] for e in tracer.events if e["ph"] == "X"}
        assert used <= named | {0}, "worker lane used without thread_name metadata"
        assert 0 not in used, "worker spans landed on the main thread's lane"

    def test_concurrent_spans_from_raw_threads(self):
        import threading

        tracer = Tracer()
        barrier = threading.Barrier(4)

        def worker(k):
            barrier.wait()
            for i in range(50):
                with tracer.span("a", k=k):
                    with tracer.span("b", k=k):
                        pass

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        spans = [e for e in tracer.events if e["ph"] == "X"]
        assert len(spans) == 400
        by_id = {e["span_id"]: e for e in spans}
        for ev in spans:
            if ev["name"] == "b":
                parent = by_id[ev["parent_id"]]
                assert parent["args"]["k"] == ev["args"]["k"]
                assert parent["tid"] == ev["tid"]

    def test_clear_resets_thread_state(self):
        tracer = Tracer()
        with tracer.span("x"):
            pass
        tracer.clear()
        assert len(tracer) == 0
        with tracer.span("y"):
            pass
        (ev,) = tracer.events
        assert ev["name"] == "y" and ev.get("parent_id") is None


# --------------------------------------------------- histogram spec round-trip
class TestPrometheusHistogramRoundTrip:
    """OpenMetrics exposition: float-canonical ``le`` values, cumulative
    ordering, and a closing ``+Inf`` bucket equal to ``_count`` — verified
    by parsing the exposed text back."""

    @staticmethod
    def _parse_buckets(text, name):
        rows = []
        for line in text.splitlines():
            if line.startswith(f"{name}_bucket"):
                le = line.split('le="')[1].split('"')[0]
                count = int(line.rsplit(" ", 1)[1])
                rows.append((le, count))
        return rows

    def test_integral_bounds_expose_as_floats(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1, 2.5, 10))
        h.observe(0.5)
        rows = self._parse_buckets(reg.to_prometheus(), "lat")
        assert [le for le, _ in rows] == ["1.0", "2.5", "10.0", "+Inf"]

    def test_round_trip_cumulative_and_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("step_ms", "per-step", buckets=(0.5, 1.0, 5.0))
        for v in (0.1, 0.7, 0.7, 3.0, 99.0):
            h.observe(v)
        text = reg.to_prometheus()
        rows = self._parse_buckets(text, "step_ms")
        # +Inf closes the series and equals _count
        assert rows[-1][0] == "+Inf"
        assert rows[-1][1] == 5
        assert f"step_ms_count 5" in text
        # bounds ascend and counts are monotonically non-decreasing
        bounds = [float(le) for le, _ in rows[:-1]]
        assert bounds == sorted(bounds)
        counts = [c for _, c in rows]
        assert counts == sorted(counts)
        assert counts == [1, 3, 4, 5]
        # reconstructing per-bucket deltas recovers every observation
        assert sum(b - a for a, b in zip([0] + counts, counts)) == h.count

    def test_explicit_inf_bound_not_duplicated(self):
        reg = MetricsRegistry()
        h = reg.histogram("x", buckets=(1.0, float("inf")))
        h.observe(0.5)
        rows = self._parse_buckets(reg.to_prometheus(), "x")
        assert [le for le, _ in rows] == ["1.0", "+Inf"]

    def test_all_inf_buckets_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(float("inf"),))


# ----------------------------------------------------------- drift edge cases
class TestDriftEdgeCases:
    def _sample(self, **kw):
        tracker = DriftTracker()
        defaults = dict(
            predicted=TimePrediction(cpu_time=1.0, gpu_time=0.5),
            observed_cpu=1.1,
            observed_gpu=0.4,
        )
        defaults.update(kw)
        return tracker, tracker.observe(0, **defaults)

    def test_zero_predicted_time(self):
        tracker, s = self._sample(
            predicted=TimePrediction(cpu_time=0.0, gpu_time=0.0)
        )
        assert s.residual == pytest.approx(1.0)  # fully under-predicted
        assert np.isfinite(tracker.summary()["mean_abs_residual"])

    def test_zero_observed_time_guarded(self):
        _, s = self._sample(observed_cpu=0.0, observed_gpu=0.0)
        assert s.residual == 0.0

    def test_nan_observed_guarded(self):
        tracker, s = self._sample(observed_cpu=float("nan"))
        assert s.residual == 0.0
        assert s.imbalance == 0.0
        summary = tracker.summary()
        assert np.isfinite(summary["mean_abs_residual"])
        assert np.isfinite(summary["mean_imbalance"])

    def test_nan_predicted_guarded(self):
        _, s = self._sample(
            predicted=TimePrediction(cpu_time=float("nan"), gpu_time=0.1)
        )
        assert s.residual == 0.0

    def test_single_observation_window(self):
        tracker, s = self._sample()
        assert len(tracker) == 1
        summary = tracker.summary()
        assert summary["n_predicted_steps"] == 1
        assert summary["mean_abs_residual"] == pytest.approx(abs(s.residual))
        assert summary["max_abs_residual"] == summary["mean_abs_residual"]

    def test_runtime_sample_nan_and_zero_guarded(self):
        tracker = DriftTracker()
        assert tracker.observe_runtime(0, simulated=1.0, measured=0.0).residual == 0.0
        assert (
            tracker.observe_runtime(1, simulated=float("nan"), measured=2.0).residual
            == 0.0
        )
        assert np.isfinite(tracker.summary()["runtime_model_residual"])


class _FakeClock:
    """Deterministic clock for span-timing assertions."""

    def __init__(self) -> None:
        self.now = 100.0

    def advance(self, dt: float) -> None:
        self.now += dt

    def __call__(self) -> float:
        return self.now


# ------------------------------------------- telemetry under an asyncio server
class TestTelemetryUnderAsyncio:
    """The serve topology: an asyncio loop dispatching concurrent engine
    solves onto pool threads, all sharing ONE Telemetry bundle.  Spans
    must keep per-thread nesting, metrics must not lose increments, and
    the trace must stay writable JSON afterwards."""

    def _solve_once(self, telemetry, seed):
        from repro.distributions.generators import compact_plummer
        from repro.fmm.evaluator import FMMSolver
        from repro.geometry.box import Box
        from repro.kernels.laplace import GravityKernel
        from repro.runtime.engine import EngineConfig, ExecutionEngine
        from repro.tree.cache import ListCache
        from repro.tree.octree import AdaptiveOctree

        ps = compact_plummer(200, seed=seed)
        tree = AdaptiveOctree(ps.positions, 32, root_box=Box((0, 0, 0), 1.0))
        with telemetry.tracer.span("serve-request", seed=seed):
            engine = ExecutionEngine(EngineConfig(n_workers=2))
            try:
                solver = FMMSolver(
                    GravityKernel(G=1.0, softening=1e-3),
                    order=3,
                    list_cache=ListCache(),
                    telemetry=telemetry,
                    engine=engine,
                )
                res = solver.solve(tree, ps.strengths, gradient=True)
            finally:
                engine.close()
        telemetry.metrics.counter(
            "test_serve_solves_total", "solves driven by the asyncio test"
        ).inc()
        return res.potential

    def test_concurrent_engine_solves_share_one_bundle(self, tmp_path):
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        telemetry = Telemetry()
        n_jobs = 6

        async def drive():
            loop = asyncio.get_running_loop()
            with ThreadPoolExecutor(max_workers=3) as pool:
                jobs = [
                    loop.run_in_executor(pool, self._solve_once, telemetry, s)
                    for s in range(n_jobs)
                ]
                return await asyncio.gather(*jobs)

        results = asyncio.run(drive())
        assert len(results) == n_jobs
        for pot in results:
            assert np.all(np.isfinite(pot))

        # no lost increments on the shared counter
        counter = telemetry.metrics.counter("test_serve_solves_total")
        assert counter.value == n_jobs

        # every span is well-formed and nesting never crosses threads
        spans = [e for e in telemetry.tracer.events if e["ph"] == "X"]
        request_spans = [e for e in spans if e["name"] == "serve-request"]
        assert len(request_spans) == n_jobs
        assert len({e["span_id"] for e in spans}) == len(spans)
        by_id = {e["span_id"]: e for e in spans}
        for ev in spans:
            parent_id = ev.get("parent_id")
            if parent_id is not None:
                assert by_id[parent_id]["tid"] == ev["tid"]
                assert by_id[parent_id]["ts"] <= ev["ts"]

        # the mixed-thread trace still serializes to valid JSON
        out = tmp_path / "serve_trace.json"
        telemetry.tracer.write(str(out))
        events = json.loads(out.read_text())["traceEvents"]
        assert len(events) >= len(spans)
