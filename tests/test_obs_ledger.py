"""Tests for the flight-recorder layer: the run ledger and the
critical-path profiler (repro.obs.ledger / critpath), and the driver's
ledger record."""

import json

import pytest

from repro.kernels import _native
from repro.obs.critpath import analyze, critical_path_timeline
from repro.obs.ledger import RunLedger, RunRecord, default_ledger_path, machine_spec
from repro.runtime.engine import EngineResult, TaskInterval


# -------------------------------------------------------------------- ledger
class TestRunLedger:
    def test_append_stamps_and_persists(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        rec = ledger.append(RunRecord(bench="b1", metrics={"ms": 10.0}))
        assert rec.ts and rec.git_rev and rec.machine
        assert rec.machine["cpu_available"] >= 1
        (stored,) = ledger.records()
        assert stored.bench == "b1"
        assert stored.metrics["ms"] == 10.0
        assert stored.machine == rec.machine

    def test_git_rev_forks_once_per_directory(self, tmp_path, monkeypatch):
        from repro.obs import ledger as ledger_mod

        calls = []
        real_run = ledger_mod.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(kwargs.get("cwd"))
            return real_run(*args, **kwargs)

        monkeypatch.setattr(ledger_mod.subprocess, "run", counting_run)
        monkeypatch.chdir(tmp_path)  # a directory no earlier test asked about
        revs = {RunRecord(bench="b").stamp().git_rev for _ in range(5)}
        assert len(revs) == 1 and calls == [str(tmp_path)]
        assert ledger_mod.git_rev(str(tmp_path)) in revs and len(calls) == 1

    def test_concurrent_appends_leave_one_whole_line_each(self, tmp_path):
        """Solver threads record at once: N appends from several threads
        are N parseable lines, records far past one write buffer too."""
        import sys
        import threading

        path = tmp_path / "runs.jsonl"
        pad = "x" * 20_000  # > the 8 KiB buffer: a line is many chunks
        n_threads, per_thread = 4, 25
        start = threading.Barrier(n_threads, timeout=30)

        def append_many(t):
            ledger = RunLedger(str(path))
            start.wait()
            for i in range(per_thread):
                ledger.append(RunRecord(bench="b", metrics={"t": t, "i": i},
                                        extra={"pad": pad}))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=append_many, args=(t,))
                       for t in range(n_threads)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        lines = path.read_text().splitlines()
        assert len(lines) == n_threads * per_thread
        seen = {(d["metrics"]["t"], d["metrics"]["i"]) for d in map(json.loads, lines)}
        assert seen == {(t, i) for t in range(n_threads) for i in range(per_thread)}

    def test_jsonl_one_record_per_line(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        for i in range(3):
            ledger.append(RunRecord(bench="b", metrics={"i": i}))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        assert all(json.loads(line)["bench"] == "b" for line in lines)

    def test_corrupt_lines_are_skipped(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        ledger = RunLedger(str(path))
        ledger.append(RunRecord(bench="good", metrics={"v": 1}))
        with open(path, "a") as fh:
            fh.write("{torn json\n")
            fh.write('{"not_a_record": true}\n')
        ledger.append(RunRecord(bench="good", metrics={"v": 2}))
        recs = ledger.records()
        assert [r.metrics["v"] for r in recs] == [1, 2]

    def test_forward_compat_unknown_fields(self, tmp_path):
        path = tmp_path / "runs.jsonl"
        path.write_text(
            json.dumps({"bench": "x", "schema": 99, "new_field": [1, 2]}) + "\n"
        )
        (rec,) = RunLedger(str(path)).records()
        assert rec.extra["new_field"] == [1, 2]

    def test_missing_file_is_empty(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "absent.jsonl"))
        assert ledger.records() == []
        assert len(ledger) == 0

    def test_machine_spec_affinity_aware(self):
        spec = machine_spec()
        assert 1 <= spec["cpu_available"] <= spec["cpu_count"]
        assert spec["python"].count(".") == 2

    def test_machine_spec_names_the_p2p_kernel(self, p2p_impl):
        from repro.kernels import p2p_backend

        spec = machine_spec()
        assert spec["p2p_kernel"] == p2p_backend() == p2p_impl
        # the compiler's version string rides along exactly when it built the kernel
        assert ("p2p_compiler" in spec) == (p2p_impl == "native")
        # ... and so does the near-field clone the library runs on this host
        if p2p_impl == "native":
            assert spec["p2p_isa"] == _native.library().isa in ("avx2", "baseline")
        else:
            assert "p2p_isa" not in spec
        assert RunRecord(bench="x").stamp().machine["p2p_kernel"] == p2p_impl

    def test_default_path_is_repo_runs_jsonl(self, monkeypatch):
        monkeypatch.delenv("REPRO_LEDGER", raising=False)
        assert default_ledger_path().endswith("RUNS.jsonl")
        monkeypatch.setenv("REPRO_LEDGER", "/tmp/elsewhere.jsonl")
        assert default_ledger_path() == "/tmp/elsewhere.jsonl"


# ------------------------------------------------------------------ critpath
def _interval(tid, label, worker, start, end, *, deps=(), ready=0.0, op=None):
    return TaskInterval(
        label=label, worker=worker, start=start, end=end,
        task_id=tid, deps=tuple(deps), ready=ready, op=op,
    )


def _result(intervals, n_workers=2):
    makespan = max(iv.end for iv in intervals)
    return EngineResult(
        makespan=makespan, n_workers=n_workers, n_tasks=len(intervals),
        intervals=list(intervals),
    )


class TestCriticalPath:
    def test_chain_follows_latest_ending_dependency(self):
        # t0 -> t2 and t1 -> t2; t1 ends later so it is the critical parent
        res = _result(
            [
                _interval(0, "A", 0, 0.0, 1.0, op="P2M"),
                _interval(1, "B", 1, 0.0, 3.0, op="M2L"),
                _interval(2, "C", 0, 3.0, 4.0, deps=(0, 1), ready=3.0, op="L2P"),
            ]
        )
        report = analyze(res)
        assert [s.label for s in report.path] == ["B", "C"]
        assert [s.stage for s in report.path] == ["M2L", "L2P"]
        assert report.path_busy == pytest.approx(4.0)
        assert report.path_coverage == pytest.approx(1.0)

    def test_queue_wait_on_path(self):
        # C became ready at 1.0 but only started at 2.0: 1s queue wait
        res = _result(
            [
                _interval(0, "A", 0, 0.0, 1.0),
                _interval(1, "C", 0, 2.0, 3.0, deps=(0,), ready=1.0),
            ],
            n_workers=1,
        )
        report = analyze(res)
        assert report.path[-1].queue_wait == pytest.approx(1.0)
        assert report.path_wait == pytest.approx(1.0)

    def test_per_stage_slack(self):
        # B (0..0.5) has 2.5s of slack before C needs it at t=3; A has none
        res = _result(
            [
                _interval(0, "A", 0, 0.0, 3.0, op="P2P"),
                _interval(1, "B", 1, 0.0, 0.5, op="M2M"),
                _interval(2, "C", 0, 3.0, 4.0, deps=(0, 1), ready=3.0, op="L2P"),
            ]
        )
        report = analyze(res)
        by_stage = {s.stage: s for s in report.stages}
        assert by_stage["P2P"].min_slack == pytest.approx(0.0)
        assert by_stage["M2M"].min_slack == pytest.approx(2.5)
        assert by_stage["P2P"].on_critical_path == pytest.approx(3.0)
        assert by_stage["M2M"].on_critical_path == 0.0
        # stages sorted most-critical first
        assert report.stages[0].stage in ("P2P", "L2P")

    def test_worker_idle_attribution(self):
        # w1 idles 0.5..2.0; task C was ready at 1.0 -> 1.0s imbalance,
        # 0.5s starved (nothing ready in 0.5..1.0)
        res = _result(
            [
                _interval(0, "A", 0, 0.0, 2.0),
                _interval(1, "B", 1, 0.0, 0.5),
                _interval(2, "C", 1, 2.0, 3.0, deps=(0,), ready=1.0),
                _interval(3, "D", 0, 2.0, 3.0, deps=(0,), ready=2.0),
            ]
        )
        report = analyze(res)
        w1 = next(w for w in report.workers if w.worker == 1)
        assert w1.imbalance == pytest.approx(1.0)
        assert w1.starved == pytest.approx(0.5)
        w0 = next(w for w in report.workers if w.worker == 0)
        assert w0.busy == pytest.approx(3.0)
        assert w0.tail == pytest.approx(0.0)

    def test_tail_idle(self):
        res = _result(
            [
                _interval(0, "A", 0, 0.0, 4.0),
                _interval(1, "B", 1, 0.0, 1.0),
            ]
        )
        report = analyze(res)
        w1 = next(w for w in report.workers if w.worker == 1)
        assert w1.tail == pytest.approx(3.0)

    def test_empty_result(self):
        report = analyze(
            EngineResult(makespan=0.0, n_workers=1, n_tasks=0, intervals=[])
        )
        assert report.path == []
        assert report.to_dict()["critical_path"] == []

    def test_text_report_sections(self):
        res = _result(
            [
                _interval(0, "P2M:chunk0", 0, 0.0, 1.0, op="P2M"),
                _interval(1, "M2L:batch", 1, 1.0, 2.0, deps=(0,), ready=1.0, op="M2L"),
            ]
        )
        text = analyze(res).to_text()
        assert "critical path:" in text
        assert "per-stage slack" in text
        assert "worker idle attribution" in text
        assert "P2M" in text and "M2L" in text

    def test_timeline_export_names_lane(self):
        res = _result([_interval(0, "A", 0, 0.0, 1.0, op="P2P")])
        rows, names = critical_path_timeline(analyze(res))
        assert rows == [("[P2P] A", 2, 0.0, 1.0)]
        assert names == {2: "critical-path"}

    def test_real_engine_run_analyzes(self):
        from repro.runtime.engine import ExecutionEngine, TaskGraphBuilder

        g = TaskGraphBuilder()
        a = g.add(lambda: sum(range(1000)), label="a", op="P2M")
        b = g.add(lambda: sum(range(2000)), label="b", deps=(a,), op="M2L")
        g.add(lambda: sum(range(500)), label="c", deps=(a, b), op="L2P")
        with ExecutionEngine(n_workers=2) as eng:
            res = eng.run(g)
        report = analyze(res)
        assert len(report.path) >= 1
        assert report.path[-1].label == "c"
        assert report.makespan > 0
        summary = report.summary_for_ledger()
        assert 0.0 <= summary["path_coverage"] <= 1.0


# ------------------------------------------------------------- driver ledger
class TestDriverLedger:
    def _run(self, tmp_path, **cfg_kwargs):
        from repro.balance.config import BalancerConfig
        from repro.distributions.generators import compact_plummer
        from repro.kernels.laplace import GravityKernel
        from repro.machine.spec import system_a
        from repro.sim.driver import Simulation, SimulationConfig

        ledger_path = str(tmp_path / "runs.jsonl")
        ps = compact_plummer(300, seed=0, total_mass=1.0, velocity_scale=1.5)
        sim = Simulation(
            ps,
            GravityKernel(G=1.0, softening=1e-3),
            system_a().with_resources(n_cores=4, n_gpus=1),
            config=SimulationConfig(
                dt=1e-4,
                balancer=BalancerConfig(s_min=8, s_max=512),
                ledger_path=ledger_path,
                **cfg_kwargs,
            ),
        )
        with sim:
            sim.run(3)
        return RunLedger(ledger_path)

    def test_close_writes_one_run_record(self, tmp_path):
        ledger = self._run(tmp_path, forces="direct")
        (rec,) = ledger.records()
        assert rec.kind == "run"
        assert rec.bench == "simulation"
        assert rec.config_hash
        assert rec.extra["n_steps"] == 3
        assert rec.balancer["steps_recorded"] == 3
        assert rec.metrics["total_compute"] > 0
        assert rec.timers, "per-op timer totals missing"
        assert all(
            t["seconds"] >= 0 and t["applications"] >= 0 for t in rec.timers.values()
        )

    def test_double_close_writes_once(self, tmp_path):
        from repro.obs.ledger import RunLedger as RL

        ledger = self._run(tmp_path, forces="direct")
        # _run's context manager closed once; close again via a fresh sim
        assert len(ledger) == 1

    def test_engine_run_records_critpath(self, tmp_path):
        ledger = self._run(tmp_path, forces="fmm", n_workers=2)
        (rec,) = ledger.records()
        assert rec.engine.get("makespan", 0) > 0
        assert "dominant_stage" in rec.engine

    def test_drift_recorded_with_telemetry_off(self, tmp_path):
        """The residual summary is read off the balancer's record, which
        every run keeps: no telemetry bundle is needed for it."""
        ledger = self._run(tmp_path, forces="direct")
        (rec,) = ledger.records()
        assert rec.drift["n_predicted_steps"] >= 1
        assert rec.drift["n_predicted_steps"] + rec.drift["n_unpredicted_steps"] == 3
        assert 0.0 <= rec.drift["mean_abs_residual"] < 1.0
        assert "drift" not in rec.balancer

    def test_balancer_decisions_recorded(self, tmp_path):
        ledger = self._run(tmp_path, forces="direct", strategy="full")
        (rec,) = ledger.records()
        assert rec.balancer["final_S"] >= 8
        assert rec.balancer["final_state"] in ("search", "incremental", "observation")
        assert "coefficients" in rec.balancer
