"""Tests for the telemetry subsystem (repro.obs)."""

import json

import numpy as np
import pytest

from repro.balance.config import BalancerConfig
from repro.balance.controller import DynamicLoadBalancer
from repro.distributions.generators import compact_plummer
from repro.kernels.laplace import GravityKernel
from repro.machine.executor import HeterogeneousExecutor, StepTiming
from repro.machine.spec import system_a
from repro.obs import (
    NULL_TELEMETRY,
    MetricsRegistry,
    Telemetry,
    Tracer,
)
from repro.obs.trace import _NULL_SPAN, REAL_PID, SIM_PID, WALL_PID
from repro.sim.driver import Simulation, SimulationConfig
from repro.util.timing import TimerRegistry


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
        assert g.value == 130

    def test_prometheus_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("hits_total", "cache hits").inc(5)
        reg.gauge("leaf_cap", "leaf cap", labels={"mode": "full"}).set(64)
        text = reg.to_prometheus()
        assert "# HELP hits_total cache hits" in text
        assert "# TYPE hits_total counter" in text
        assert "hits_total 5" in text
        assert 'leaf_cap{mode="full"} 64' in text

    def test_snapshot_is_json_able(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = json.loads(json.dumps(reg.snapshot()))
        assert snap["c"] == 1


# ---------------------------------------------------------------------- drift
def _frozen_balancer():
    """A balancer past its search with the tree frozen: ``end_of_step``
    only predicts, folds in the coefficients, and records."""
    balancer = DynamicLoadBalancer(HeterogeneousExecutor(system_a()), mode="static")
    balancer._frozen = True
    return balancer


def _step(balancer, predicted, observed_cpu, observed_gpu, registry=None):
    """Record one step whose §IV-D prediction is ``predicted`` — a
    ``(cpu, gpu)`` pair the held coefficients are set to produce, or None
    for coefficients not ready yet — and return its decision record."""
    c = balancer.coeffs
    if predicted is None:
        c.steps_observed = 0
    else:
        # one M2M and one P2P application; P2M/M2L/L2P only make it ready
        c.cpu = {"P2M": 1.0, "M2L": 1.0, "L2P": 1.0, "M2M": predicted[0]}
        c.gpu_p2p = predicted[1]
        c.steps_observed = 1
    timing = StepTiming(
        cpu_time=observed_cpu,
        gpu_time=observed_gpu,
        op_counts={"M2M": 1, "P2P": 1},
        cpu_registry=registry if registry is not None else TimerRegistry(),
    )
    balancer.end_of_step(None, timing)
    return balancer.decisions[-1]


def _drift(balancer):
    return balancer.decision_summary()["drift"]


class TestDrift:
    """Each decision record carries the step's prediction beside what it
    observed; ``decision_summary()["drift"]`` sums the residuals."""

    def test_residual_sign(self):
        b = _frozen_balancer()
        dec = _step(b, (0.9, 0.5), observed_cpu=1.0, observed_gpu=0.4)
        assert dec["predicted"] == pytest.approx({"cpu": 0.9, "gpu": 0.5})
        assert (dec["cpu"], dec["gpu"]) == (1.0, 0.4)
        assert dec["residual"] == pytest.approx(0.1)  # under-predicted by 10%
        assert _drift(b)["mean_imbalance"] == pytest.approx(0.6)

    def test_unpredicted_steps_counted(self):
        b = _frozen_balancer()
        dec = _step(b, None, observed_cpu=1.0, observed_gpu=1.0)
        assert dec["predicted"] is None and dec["residual"] is None
        assert _drift(b)["n_unpredicted_steps"] == 1
        assert _drift(b)["n_predicted_steps"] == 0

    def test_summary_over_steps(self):
        b = _frozen_balancer()
        for _ in range(3):
            _step(b, (1.0, 0.0), observed_cpu=2.0, observed_gpu=0.0)
        summary = _drift(b)
        assert summary["n_predicted_steps"] == 3
        assert summary["mean_abs_residual"] == pytest.approx(0.5)
        assert [d["residual"] for d in b.decisions] == pytest.approx([0.5] * 3)

    def test_summary_covers_steps_past_the_record(self):
        b = _frozen_balancer()
        n = b.decisions.maxlen + 10
        for _ in range(n):
            _step(b, (1.0, 0.0), observed_cpu=2.0, observed_gpu=0.0)
        assert len(b.decisions) < n
        assert _drift(b)["n_predicted_steps"] == n

    def test_prediction_uses_coefficients_held_before_the_step(self):
        b = _frozen_balancer()
        registry = TimerRegistry()
        registry.timer("M2M").add(5.0, 1)  # this step observes M2M at 5.0
        dec = _step(b, (0.9, 0.5), 1.0, 0.4, registry=registry)
        assert dec["predicted"]["cpu"] == pytest.approx(0.9)
        assert dec["coeffs"]["M2M"] == pytest.approx(5.0)  # post-update

# ----------------------------------------------------------------- edge cases
class TestTelemetryEdgeCases:
    """Degenerate registries and degraded steps must stay well-defined."""

    def test_drift_summary_on_empty_record(self):
        b = _frozen_balancer()
        summary = _drift(b)
        assert summary["n_predicted_steps"] == 0
        assert summary["mean_abs_residual"] == 0.0
        # json round-trip of the empty summary
        json.dumps(b.decision_summary())

    def test_empty_registry_snapshot(self):
        reg = MetricsRegistry()
        assert reg.snapshot() == {}
        assert len(reg) == 0
        assert "# " not in reg.to_prometheus() or reg.to_prometheus() == ""

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
        # the healthy step's engine run was exported again
        assert sim.last_critpath is not None
        assert "runtime_engine_utilization" in snap


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
        sim, _ = run20
        summary = sim.balancer.decision_summary()["drift"]
        assert summary["n_predicted_steps"] >= 10
        # the §IV-D model should predict within tens of percent, not be junk
        assert summary["mean_abs_residual"] < 0.5
        # coefficient trajectories were recorded
        assert all(d["coeffs"]["M2L"] > 0.0 for d in sim.balancer.decisions)

    def test_trace_json_valid(self, run20, tmp_path):
        _, tel = run20
        path = tmp_path / "t.json"
        tel.tracer.write(str(path))
        doc = json.loads(path.read_text())
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "ts" in ev and "pid" in ev and "tid" in ev

    def test_disabled_telemetry_records_nothing(self):
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
        # the balancer's record is kept with telemetry off too
        drift = sim.balancer.decision_summary()["drift"]
        assert drift["n_predicted_steps"] + drift["n_unpredicted_steps"] == 2


class TestEngineInstrumentation:
    """An FMM run through the real thread-pool engine exports its worker
    timelines as a third Perfetto process and its utilization as a
    gauge."""

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

    def test_engine_utilization_tracked(self, engine_run):
        sim, tel = engine_run
        assert sim.last_critpath is not None
        snap = tel.metrics.snapshot()
        assert 0.0 < snap["runtime_engine_utilization"] <= 1.0


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


# ----------------------------------------------------------- drift edge cases
class TestDriftEdgeCases:
    def _sample(self, predicted=(1.0, 0.5), observed_cpu=1.1, observed_gpu=0.4):
        b = _frozen_balancer()
        return b, _step(b, predicted, observed_cpu, observed_gpu)

    def test_zero_predicted_time(self):
        b, dec = self._sample(predicted=(0.0, 0.0))
        assert dec["residual"] == pytest.approx(1.0)  # fully under-predicted
        assert np.isfinite(_drift(b)["mean_abs_residual"])

    def test_zero_observed_time_guarded(self):
        _, dec = self._sample(observed_cpu=0.0, observed_gpu=0.0)
        assert dec["residual"] == 0.0

    def test_nan_observed_guarded(self):
        b, dec = self._sample(observed_cpu=float("nan"))
        assert dec["residual"] == 0.0
        summary = _drift(b)
        assert summary["mean_imbalance"] == 0.0
        assert np.isfinite(summary["mean_abs_residual"])

    def test_nan_predicted_guarded(self):
        _, dec = self._sample(predicted=(float("nan"), 0.1))
        assert dec["residual"] == 0.0

    def test_single_observation_window(self):
        b, dec = self._sample()
        summary = _drift(b)
        assert summary["n_predicted_steps"] == 1
        assert summary["mean_abs_residual"] == pytest.approx(abs(dec["residual"]))
        assert summary["max_abs_residual"] == summary["mean_abs_residual"]


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
        from repro.runtime.engine import ExecutionEngine
        from repro.tree.cache import ListCache
        from repro.tree.octree import AdaptiveOctree

        ps = compact_plummer(200, seed=seed)
        tree = AdaptiveOctree(ps.positions, 32, root_box=Box((0, 0, 0), 1.0))
        with telemetry.tracer.span("serve-request", seed=seed):
            engine = ExecutionEngine(n_workers=2)
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
