"""Tests for the resilience layer (DESIGN.md §11).

Five pillars:

* **supervision mechanics** — retry policy, non-retryable fail-fast,
  cooperative cancellation, pool reusability;
* **one deadline contract** — a :class:`Deadline` handed to ``solve``
  raises :class:`SolveDeadlineError` on every back end, for both solvers,
  never degrades, and leaves the pool / shard session serving;
* **chaos determinism** — seeded :class:`FaultPlan` injections (raises
  absorbed by retries, delays perturbing interleavings, unrecoverable
  failures absorbed by serial degradation) leave the numeric results
  bitwise identical to the fault-free serial path;
* **numeric guardrails** — NaN poisoned into one leaf's multipoles trips
  the quarantine: the step completes with correct forces, the tree is
  rebuilt, and the balancer restarts its search;
* **balancer watchdog** — S flip-flop in the incremental state forces
  the observation state instead of thrashing the tree;
* **shutdown & exception safety** — daemonic workers, idempotent close,
  transactional tree surgery;
* **surgery after resume** — a tree restored from a checkpoint takes
  collapse / pushdown, journalled list repair and a solve bitwise like the
  tree that was never checkpointed.
"""

import os
import threading
import time

import numpy as np
import pytest

from repro.balance import BalancerConfig, BalancerState, DynamicLoadBalancer
from repro.distributions.generators import plummer
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion
from repro.fmm import farfield
from repro.fmm.evaluator import FMMSolver
from repro.fmm.farfield import FarFieldPass
from repro.fmm.nearfield import build_near_field_plan, chunk_ranges
from repro.kernels import LaplaceKernel
from repro.kernels.direct import direct_evaluate
from repro.kernels.laplace import GravityKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.machine.executor import HeterogeneousExecutor
from repro.machine.spec import system_a
from repro.obs import Telemetry
from repro.resilience.checkpoint import tree_from_state, tree_state_arrays
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    check_finite,
)
from repro.runtime.engine import (
    MAX_ATTEMPTS,
    ExecutionEngine,
    GraphTaskError,
    TaskGraphBuilder,
)
from repro.runtime import engine as engine_module
from repro.runtime.shards import ProcessEngine
from repro.sim.driver import Simulation, SimulationConfig
from repro.tree import AdaptiveOctree, build_interaction_lists
from repro.tree import octree as octree_module
from repro.util.timing import Deadline, SolveDeadlineError

from tests.test_property_surgery import assert_once_cover, assert_tree_invariants

_WORKER_COUNTS = sorted({1, 2, os.cpu_count() or 1})
_BACKENDS = {"cartesian": CartesianExpansion, "spherical": SphericalExpansion}


def _fired_kinds(plan: FaultPlan) -> set[str]:
    return {kind for kind, _, _ in plan.fired}


# --------------------------------------------------------------------------
# configuration validation
# --------------------------------------------------------------------------


class TestValidation:
    def test_fault_spec(self):
        with pytest.raises(ValueError):
            FaultSpec("explode", match="x")
        with pytest.raises(ValueError):
            FaultSpec("nan", match="x")  # needs an action
        with pytest.raises(ValueError):
            FaultSpec("raise", match="x", fire_attempts=0)

    def test_simulation_config_messages(self):
        with pytest.raises(ValueError, match="n_workers"):
            SimulationConfig(n_workers=0)
        with pytest.raises(ValueError, match="dt"):
            SimulationConfig(dt=0.0)
        with pytest.raises(ValueError, match="checkpoint_every"):
            SimulationConfig(checkpoint_every=0)

    def test_check_finite(self):
        assert check_finite(np.zeros(4))
        assert check_finite(None) and check_finite(np.zeros(0))
        assert not check_finite(np.array([1.0, np.nan]))
        assert not check_finite(np.array([1.0, np.inf]))


# --------------------------------------------------------------------------
# supervision mechanics (synthetic graphs)
# --------------------------------------------------------------------------


@pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
class TestSupervision:
    def test_retry_recovers_transient_fault(self, n_workers):
        """A retryable task failing its first attempt is re-run and the
        graph completes; the failure is recorded as retried."""
        hits = []
        g = TaskGraphBuilder()
        g.add(lambda: hits.append(1), label="flaky")
        g.add(lambda: None, label="steady")
        plan = FaultPlan([FaultSpec("raise", match="flaky")])
        with ExecutionEngine(n_workers=n_workers) as eng:
            eng.install_fault_plan(plan)
            res = eng.run(g)
            eng.install_fault_plan(None)
        assert hits == [1]
        assert res.retries == 1
        assert [f.label for f in res.failures] == ["flaky"]
        assert res.failures[0].retried
        assert _fired_kinds(plan) == {"raise"}

    def test_nonretryable_fails_fast(self, n_workers):
        g = TaskGraphBuilder()
        g.add(lambda: 1 / 0, label="merge", retryable=False)
        with ExecutionEngine(n_workers=n_workers) as eng:
            with pytest.raises(GraphTaskError) as exc_info:
                eng.run(g)
        assert exc_info.value.attempts == 1

    def test_deadline_expires(self, n_workers):
        g = TaskGraphBuilder()
        for i in range(8):
            g.add(lambda: time.sleep(0.03), label=f"slow{i}")
        ran_after = []
        with ExecutionEngine(n_workers=n_workers) as eng:
            with pytest.raises(SolveDeadlineError) as exc_info:
                eng.run(g, deadline=Deadline(0.02))
            g2 = TaskGraphBuilder()
            g2.add(lambda: ran_after.append(1), label="after")
            eng.run(g2)  # the budget belonged to that run only
        assert exc_info.value.phase.startswith("graph (") and ran_after == [1]

    def test_retry_budget_exhausts_to_graph_error(self, n_workers):
        g = TaskGraphBuilder()
        g.add(lambda: None, label="doomed")
        plan = FaultPlan([FaultSpec("raise", match="doomed", fire_attempts=99)])
        with ExecutionEngine(n_workers=n_workers) as eng:
            eng.install_fault_plan(plan)
            with pytest.raises(GraphTaskError) as exc_info:
                eng.run(g)
        err = exc_info.value
        assert err.attempts == MAX_ATTEMPTS
        assert isinstance(err.__cause__, InjectedFault)


class TestShutdown:
    def test_worker_threads_are_daemonic(self):
        with ExecutionEngine(n_workers=2) as eng:
            g = TaskGraphBuilder()
            g.add(lambda: None, label="t")
            eng.run(g)
            workers = [
                t for t in threading.enumerate() if t.name.startswith("repro-engine")
            ]
            assert workers and all(t.daemon for t in workers)

    def test_close_idempotent_and_reusable(self):
        eng = ExecutionEngine(n_workers=2)
        g = TaskGraphBuilder()
        g.add(lambda: None, label="t")
        eng.run(g)
        eng.close()
        eng.close()  # second close is a no-op
        res = eng.run(g)  # pool lazily recreated
        assert res.n_tasks == 1
        eng.close()

    def test_simulation_context_manager(self):
        ps = plummer(120, seed=3)
        cfg = SimulationConfig(forces="fmm", n_workers=2, order=2)
        with Simulation(
            ps, GravityKernel(softening=1e-3), system_a(), config=cfg
        ) as sim:
            sim.step()
            assert sim.engine is not None
        sim.close()  # idempotent after __exit__
        # the sim stays usable: the engine lazily recreates its pool
        sim.step()
        sim.close()


# --------------------------------------------------------------------------
# chaos determinism on the real FMM pipeline
# --------------------------------------------------------------------------


def _chaos_plan() -> FaultPlan:
    """ISSUE contract: at least one raise and one delay per graph.

    The raise lands on a retryable endpoint (P2M, every pass has one) and
    the delay on an in-place add (an L2L level), perturbing the
    interleaving around the ordered chain.
    """
    return FaultPlan(
        [
            FaultSpec("raise", match="P2M"),
            FaultSpec("delay", match="L2L", max_fires=4, delay_s=0.002),
        ]
    )


def _laplace_case(backend, engine, plan=None):
    pts = plummer(350, seed=11).positions
    q = np.random.default_rng(11).uniform(-1, 1, pts.shape[0])
    tree = AdaptiveOctree(pts, S=12)
    lists = build_interaction_lists(tree)
    solver = FMMSolver(
        LaplaceKernel(softening=1e-3),
        expansion=_BACKENDS[backend](3),
        engine=engine,
    )
    if engine is not None and plan is not None:
        engine.install_fault_plan(plan)
    try:
        res = solver.solve(tree, q, gradient=True, lists=lists)
    finally:
        if engine is not None:
            engine.install_fault_plan(None)
    return res.potential, res.gradient, solver


def _run_laplace_chaos(backend, n_workers):
    ref_pot, ref_grad, _ = _laplace_case(backend, None)
    plan = _chaos_plan()
    with ExecutionEngine(n_workers=n_workers) as eng:
        pot, grad, solver = _laplace_case(backend, eng, plan)
    assert {"raise", "delay"} <= _fired_kinds(plan)
    assert np.array_equal(pot, ref_pot)
    assert np.array_equal(grad, ref_grad)
    assert solver.degraded_runs == 0  # retries absorbed every raise
    assert solver.last_engine_result.retries >= 1


# fast smoke pair stays in tier-1; the full matrix runs under -m chaos.
@pytest.mark.parametrize("backend,n_workers", [("cartesian", 2), ("spherical", 1)])
def test_laplace_chaos_smoke(backend, n_workers):
    _run_laplace_chaos(backend, n_workers)


def test_transient_fault_in_a_near_tile_chunk_retries():
    """A near-field chunk assigns its own target rows, so a transient
    fault in one is retried in place — not thrown away with the whole
    graph onto the serial path."""
    ref_pot, ref_grad, _ = _laplace_case("cartesian", None)
    plan = FaultPlan([FaultSpec("raise", match="near:t")])
    with ExecutionEngine(n_workers=2) as eng:
        pot, grad, solver = _laplace_case("cartesian", eng, plan)
    assert _fired_kinds(plan) == {"raise"}
    assert solver.degraded_runs == 0
    assert solver.last_engine_result.retries >= 1
    assert np.array_equal(pot, ref_pot) and np.array_equal(grad, ref_grad)


def test_fault_partway_through_m2l_retries_the_stage(monkeypatch):
    """M2L is one retryable stage — its octet arrays are its own and it
    assigns ``locals_`` — so a raise partway through its class merges,
    after some classes were added into the target octets, is retried
    once in place, and the result is still serial's bit for bit."""
    ref_pot, ref_grad, _ = _laplace_case("cartesian", None)
    real_add_rows = farfield.add_rows
    calls = 0

    def add_rows_failing_once(rows, idx, delta):
        # M2M assigns, so the sweep's first adds are M2L's class merges
        nonlocal calls
        calls += 1
        if calls == 3:
            raise RuntimeError("injected fault in the third M2L class merge")
        real_add_rows(rows, idx, delta)

    monkeypatch.setattr(farfield, "add_rows", add_rows_failing_once)
    with ExecutionEngine(n_workers=2) as eng:
        pot, grad, solver = _laplace_case("cartesian", eng)
    assert solver.degraded_runs == 0
    res = solver.last_engine_result
    assert res.retries == 1
    assert [f.label for f in res.failures] == ["M2L"]
    assert np.array_equal(pot, ref_pot) and np.array_equal(grad, ref_grad)


@pytest.mark.chaos
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
def test_laplace_chaos_matrix(backend, n_workers):
    """Faulted-then-retried runs are bitwise identical to fault-free
    serial across workers x backends."""
    _run_laplace_chaos(backend, n_workers)


def _run_stokeslet_chaos(n_workers, backend):
    pts = plummer(300, seed=7).positions
    f = np.random.default_rng(7).standard_normal((pts.shape[0], 3))
    tree = AdaptiveOctree(pts, S=16)
    ref = (
        StokesletFMMSolver(order=3, expansion=_BACKENDS[backend](3))
        .solve(tree, f)
        .velocity
    )
    plan = _chaos_plan()
    with ExecutionEngine(n_workers=n_workers) as eng:
        solver = StokesletFMMSolver(
            order=3, expansion=_BACKENDS[backend](3), engine=eng
        )
        eng.install_fault_plan(plan)
        try:
            u = solver.solve(tree, f).velocity
        finally:
            eng.install_fault_plan(None)
    assert "raise" in _fired_kinds(plan)
    assert np.array_equal(u, ref)
    assert solver.degraded_runs == 0


def test_stokeslet_chaos_smoke():
    _run_stokeslet_chaos(2, "cartesian")


@pytest.mark.chaos
@pytest.mark.parametrize("backend", sorted(_BACKENDS))
@pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
def test_stokeslet_chaos_matrix(n_workers, backend):
    _run_stokeslet_chaos(n_workers, backend)


_SOLVER_KINDS = ("laplace", "stokeslet")


def _solver_case(kind, n, seed, **solver_kwargs):
    """One solver of ``kind`` with matching strengths: ``(solver, strengths,
    solve kwargs, result -> output arrays)``."""
    rng = np.random.default_rng(seed)
    if kind == "laplace":
        solver = FMMSolver(LaplaceKernel(softening=1e-3), order=3, **solver_kwargs)
        return solver, rng.uniform(-1, 1, n), {"gradient": True}, (
            lambda res: (res.potential, res.gradient)
        )
    solver = StokesletFMMSolver(order=3, **solver_kwargs)
    return solver, rng.standard_normal((n, 3)), {}, lambda res: (res.velocity,)


class TestDegradation:
    """Unrecoverable graph failures fall back to exact serial re-execution
    — one ladder (:class:`repro.fmm.dispatch.PassListSolver`), so every
    property is asserted for both solvers."""

    def _poisoned_solve(self, kind, telemetry=None):
        pts = plummer(300, seed=23).positions
        tree = AdaptiveOctree(pts, S=12)
        lists = build_interaction_lists(tree)
        ref_solver, q, kw, outputs = _solver_case(kind, pts.shape[0], 23)
        ref = ref_solver.solve(tree, q, lists=lists, **kw)
        # an L2L level adds in place, so it is non-retryable: a single raise
        # there is unrecoverable
        plan = FaultPlan([FaultSpec("raise", match="L2L", fire_attempts=99)])
        with ExecutionEngine(n_workers=2) as eng:
            solver, _, _, _ = _solver_case(
                kind, pts.shape[0], 23, engine=eng, telemetry=telemetry
            )
            eng.install_fault_plan(plan)
            try:
                res = solver.solve(tree, q, lists=lists, **kw)
            finally:
                eng.install_fault_plan(None)
        return outputs(ref), outputs(res), solver

    def test_degrades_to_bitwise_serial(self):
        for kind in _SOLVER_KINDS:
            ref, res, solver = self._poisoned_solve(kind)
            assert solver.degraded_runs == 1, kind
            assert solver.last_engine_result is None, kind  # partial run discarded
            for a, b in zip(res, ref):
                assert np.array_equal(a, b), kind

    def test_degraded_run_counted_in_metrics(self):
        for kind in _SOLVER_KINDS:
            telemetry = Telemetry()
            _, _, solver = self._poisoned_solve(kind, telemetry=telemetry)
            assert solver.degraded_runs == 1
            snap = telemetry.metrics.snapshot()
            # exactly one series: the failing solver's own label
            degraded = {k: v for k, v in snap.items() if "runtime_degraded_total" in k}
            assert degraded == {f'runtime_degraded_total{{solver="{kind}"}}': 1}


# --------------------------------------------------------------------------
# one deadline contract, every back end
# --------------------------------------------------------------------------


class _ExpiresAtLook(Deadline):
    """Deterministic mid-solve expiry: the budget runs out at the N-th
    time a back end looks at it (the first look is the dispatcher's,
    after the list fetch)."""

    def __init__(self, n_looks: int) -> None:
        super().__init__(3600.0)
        self.looks_left = n_looks

    def remaining(self) -> float:
        self.looks_left -= 1
        return 1e-3 if self.looks_left > 0 else -1.0


_DEADLINE_ENGINES = {
    "serial": lambda: None,
    "threads:2": lambda: ExecutionEngine(n_workers=2),
    "shards:2": lambda: ProcessEngine(n_shards=2, timeout_s=60.0),
}


@pytest.mark.parametrize("kind", _SOLVER_KINDS)
@pytest.mark.parametrize("backend", sorted(_DEADLINE_ENGINES))
def test_deadline_contract(backend, kind, monkeypatch):
    """An already-expired and a mid-solve deadline each raise
    :class:`SolveDeadlineError` naming a phase; nothing degrades or re-runs
    serially; the next solve on the same solver and engine is bitwise
    serial — same pool, same shard session, nobody respawned."""
    pts = plummer(600, seed=31).positions
    tree = AdaptiveOctree(pts, S=12)
    ref_solver, q, kw, outputs = _solver_case(kind, pts.shape[0], 31)
    ref = outputs(ref_solver.solve(tree, q, **kw))
    engine = _DEADLINE_ENGINES[backend]()
    try:
        solver, _, _, _ = _solver_case(kind, pts.shape[0], 31, engine=engine)
        serial_runs = []
        run_serial = solver._run_serial
        monkeypatch.setattr(
            solver, "_run_serial",
            lambda *a: serial_runs.append(1) or run_serial(*a),
        )

        def solve_ok():
            for a, b in zip(outputs(solver.solve(tree, q, **kw)), ref):
                assert np.array_equal(a, b)

        solve_ok()  # warm: lists cached, pool spawned, session installed
        state = (
            getattr(engine, "_pool", None), getattr(engine, "_session", None)
        )
        n_serial = len(serial_runs)
        for deadline, phase_ok in (
            (Deadline(0.0), lambda ph: ph == "lists"),
            (_ExpiresAtLook(5), lambda ph: ph and ph != "lists"),
        ):
            with pytest.raises(SolveDeadlineError) as exc_info:
                solver.solve(tree, q, deadline=deadline, **kw)
            assert phase_ok(exc_info.value.phase), exc_info.value.phase
            assert solver.degraded_runs == 0
            assert solver.last_engine_result is None
            assert solver.last_shard_result is None
        if engine is None:
            # the mid-solve one died inside the sweep it was running
            assert len(serial_runs) == n_serial + 1
        else:
            assert len(serial_runs) == n_serial == 0

        solve_ok()
        assert solver.degraded_runs == 0
        assert (
            getattr(engine, "_pool", None), getattr(engine, "_session", None)
        ) == state
        if backend.startswith("shards"):
            assert engine.total_respawns == engine.total_serial_fallbacks == 0
            assert solver.last_shard_result.respawns == 0
    finally:
        if engine is not None:
            engine.close()


@pytest.mark.parametrize("kind", _SOLVER_KINDS)
def test_an_armed_deadline_does_not_change_the_near_field_calls(kind, monkeypatch):
    """A deadline changes when a serial solve may stop, not how it runs:
    armed or not, the near field is one ``Kernel.near_tiles`` call per
    chunk of its tiles, the chunks those of two lanes (the served shape,
    Plummer 2k at S=32, has hundreds of tiles)."""
    monkeypatch.setattr(engine_module, "default_workers", lambda: 2)
    pts = plummer(2000, seed=3).positions
    tree = AdaptiveOctree(pts, S=32)
    solver, q, kw, outputs = _solver_case(kind, pts.shape[0], 3)
    calls = []
    near_tiles = solver.kernel.near_tiles
    monkeypatch.setattr(
        solver.kernel, "near_tiles",
        lambda *a: calls.append(len(a[3])) or near_tiles(*a),
    )
    ref = outputs(solver.solve(tree, q, **kw))
    lists = solver.list_cache.get(tree)
    n_tiles = lists.nearfield_plan_stats["tiles"]
    chunks = chunk_ranges(build_near_field_plan(tree, lists).tile_weights, 2)
    assert sorted(calls) == sorted(hi - lo for lo, hi in chunks)
    assert len(chunks) == 2 and sum(calls) == n_tiles > 100
    expected, calls[:] = sorted(calls), []
    res = outputs(solver.solve(tree, q, deadline=Deadline(3600.0), **kw))
    assert sorted(calls) == expected
    for a, b in zip(res, ref):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------
# numeric guardrails: quarantine end to end
# --------------------------------------------------------------------------


class TestQuarantine:
    def _sim(self, n_workers=1, telemetry=None):
        ps = plummer(400, seed=17)
        cfg = SimulationConfig(
            forces="fmm",
            order=3,
            n_workers=n_workers,
        )
        sim = Simulation(
            ps,
            GravityKernel(softening=1e-3),
            system_a(),
            config=cfg,
            telemetry=telemetry,
        )
        sim.balancer.S = 8  # deep tree: the poisoned multipole must reach bodies
        return sim

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_poisoned_multipoles_trigger_quarantine(self, n_workers, monkeypatch):
        """NaN injected into one leaf's multipole coefficients: the step
        completes with correct forces, the metric increments, the tree is
        rebuilt, and the balancer restarts its search."""
        telemetry = Telemetry()
        sim = self._sim(n_workers=n_workers, telemetry=telemetry)
        real_p2m = FarFieldPass.p2m
        poisoned = []

        def poison(self):
            real_p2m(self)
            if poisoned:
                return  # first pass of the first step only
            # one leaf that actually has far-field targets: a leaf child
            # in a source octet of an M2L class
            geom = self.geom
            leaf_child = np.isin(geom.child_rows, geom.leaf_rows)
            leaf_in_octet = dict(
                zip(
                    (geom.child_slots[0][leaf_child] // 8).tolist(),
                    geom.child_rows[leaf_child].tolist(),
                )
            )
            for src_octets, _, _ in geom.m2l_classes:
                hit = [leaf_in_octet[o] for o in src_octets.tolist() if o in leaf_in_octet]
                if hit:
                    self.multipoles[hit[0]] = np.nan
                    poisoned.append(True)
                    return

        monkeypatch.setattr(FarFieldPass, "p2m", poison)
        with sim:
            sim.step()
        assert poisoned
        assert sim.quarantines == 1
        snap = telemetry.metrics.snapshot()
        assert snap["numeric_quarantine_total"] == 1
        # the balancer was reset to SEARCH mid-step; the end-of-step
        # controller may then legitimately advance the fresh search
        assert snap['balancer_resets_total{reason="numeric_quarantine"}'] == 1
        acc = sim.integrator._acc
        assert acc is not None and np.isfinite(acc).all()
        assert np.isfinite(sim.particles.positions).all()
        assert np.isfinite(sim.particles.velocities).all()

    def test_quarantine_repairs_rows_exactly(self):
        """Unit-level: NaN rows are recomputed through the direct oracle
        (all sources minus the self term) bitwise."""
        sim = self._sim()
        sim._ensure_tree()
        q = sim.particles.strengths
        pts = sim.particles.positions
        lists = sim.list_cache.get(sim.tree)
        acc = sim.solver.solve(
            sim.tree, q, gradient=True, potential=False, lists=lists
        ).gradient
        bad = np.array([3, 40, 127])
        poisoned = acc.copy()
        poisoned[bad] = np.nan
        repaired = sim._quarantine(poisoned, q)
        expect = direct_evaluate(
            sim.kernel, pts[bad], pts, q, gradient=True, exclude_self=False
        ) - sim.kernel.self_interaction(pts[bad], q[bad], gradient=True)
        assert np.array_equal(repaired[bad], expect)
        good = np.setdiff1d(np.arange(acc.shape[0]), bad)
        assert np.array_equal(repaired[good], acc[good])
        assert sim.quarantines == 1
        assert sim._needs_rebuild
        assert sim.balancer.state is BalancerState.SEARCH

    def test_healthy_run_never_quarantines(self, monkeypatch):
        """The check runs on every FMM acceleration array; finite forces
        never trip it."""
        import repro.sim.driver as driver

        checked = []

        def spy(arr):
            checked.append(arr.shape)
            return check_finite(arr)

        monkeypatch.setattr(driver, "check_finite", spy)
        ps = plummer(150, seed=19)
        cfg = SimulationConfig(forces="fmm", order=2)
        sim = Simulation(ps, GravityKernel(softening=1e-3), system_a(), config=cfg)
        with sim:
            sim.step()
            sim.step()
        # the first step primes the integrator: three solves in two steps
        assert checked == [(150, 3)] * 3
        assert sim.quarantines == 0


# --------------------------------------------------------------------------
# balancer watchdog
# --------------------------------------------------------------------------


def _balancer():
    executor = HeterogeneousExecutor(
        system_a(), order=3, kernel=GravityKernel(softening=1e-3)
    )
    return DynamicLoadBalancer(executor)


class TestWatchdog:
    def _fill(self, b, values, state=BalancerState.INCREMENTAL):
        b.state = BalancerState.INCREMENTAL
        b._s_history.clear()
        for v in values:
            b._s_history.append((state, v))

    def test_oscillation_forces_observation(self):
        from repro.balance.controller import LBOutcome

        b = _balancer()
        self._fill(b, [64, 70, 64, 70, 64, 70])  # 4 direction reversals
        out = LBOutcome()
        b._watchdog(out)
        assert b.state is BalancerState.OBSERVATION
        assert b._expect_new_best
        assert any(a.startswith("watchdog") for a in out.actions)
        assert not b._s_history  # window cleared after the trip

    def test_monotone_s_passes(self):
        from repro.balance.controller import LBOutcome

        b = _balancer()
        self._fill(b, [64, 70, 77, 84, 92, 101])
        b._watchdog(LBOutcome())
        assert b.state is BalancerState.INCREMENTAL

    def test_mixed_states_pass(self):
        from repro.balance.controller import LBOutcome

        b = _balancer()
        self._fill(b, [64, 70, 64, 70, 64, 70])
        b._s_history[0] = (BalancerState.SEARCH, 64)  # window not pure
        b._watchdog(LBOutcome())
        assert b.state is BalancerState.INCREMENTAL

    def test_reset_to_search(self):
        b = _balancer()
        b.state = BalancerState.OBSERVATION
        b.best_time = 1.5
        b.S = 99
        b._s_history.append((BalancerState.OBSERVATION, 99))
        b.reset_to_search(reason="test")
        assert b.state is BalancerState.SEARCH
        assert b.best_time is None
        assert not b._s_history
        assert b._lo == float(b.config.s_min)
        assert b._hi == float(b.config.s_max)
        assert b.S == 99  # S itself is kept; the search re-narrows from here


# --------------------------------------------------------------------------
# tree surgery exception safety
# --------------------------------------------------------------------------


class TestSurgeryExceptionSafety:
    def _tree(self, n=500, S=8, seed=31):
        pts = plummer(n, seed=seed).positions
        return AdaptiveOctree(pts, S=S)

    def test_pushdown_failure_rolls_back(self, monkeypatch):
        tree = self._tree()
        # collapse an internal node so pushdown reclaims, then fail the
        # fresh-allocation path on a different leaf mid-way
        leaves = [
            l
            for l in tree.leaves()
            if tree.nodes[l].count >= 2
            and tree.nodes[l].level < tree.max_level
            and tree.nodes[l].children is None
        ]
        assert leaves, "need a pushdown-able leaf with unallocated children"
        # the fullest leaf: its bodies spread over several octants
        victim = max(leaves, key=lambda l: tree.nodes[l].count)
        n_nodes_before = len(tree.nodes)
        gen_before = tree.generation
        calls = []
        real = octree_module.OctreeNode

        def flaky(**fields):
            calls.append(fields["id"])
            if len(calls) == 2:  # fail after one child was appended
                raise RuntimeError("allocation failed mid-pushdown")
            return real(**fields)

        # children are allocated in one batch; the node constructor is the
        # step inside it that can fail with part of the batch appended
        monkeypatch.setattr(octree_module, "OctreeNode", flaky)
        with pytest.raises(RuntimeError, match="mid-pushdown"):
            tree.pushdown(victim)
        assert len(calls) == 2
        monkeypatch.setattr(octree_module, "OctreeNode", real)
        # rollback: node buffer truncated, leaf unchanged, stamps bumped
        assert len(tree.nodes) == n_nodes_before
        assert tree.nodes[victim].is_leaf
        assert tree.nodes[victim].children is None
        assert tree.generation != gen_before  # caches conservatively dropped
        assert_tree_invariants(tree)
        lists = build_interaction_lists(tree)
        assert_once_cover(tree, lists)
        # the tree still supports surgery + a full solve afterwards
        kids = tree.pushdown(victim)
        assert kids and not tree.nodes[victim].is_leaf
        assert_tree_invariants(tree)

    def test_collapse_traversal_failure_leaves_tree_intact(self, monkeypatch):
        tree = self._tree()
        internal = [
            n
            for n in tree.effective_nodes()
            if not tree.nodes[n].is_leaf and n != 0
        ]
        assert internal
        victim = internal[0]
        real = AdaptiveOctree._descendants

        def boom(self, nid):
            raise RuntimeError("traversal failed")

        monkeypatch.setattr(AdaptiveOctree, "_descendants", boom)
        before_leaf = tree.nodes[victim].is_leaf
        gen_before = tree.generation
        with pytest.raises(RuntimeError, match="traversal"):
            tree.collapse(victim)
        monkeypatch.setattr(AdaptiveOctree, "_descendants", real)
        assert tree.nodes[victim].is_leaf == before_leaf
        assert tree.generation == gen_before  # nothing was touched
        assert not any(n.hidden for n in tree.nodes if n.parent == victim)
        assert_tree_invariants(tree)

    def test_list_cache_consistent_after_failed_pushdown(self, monkeypatch):
        """A failed pushdown must not leave a stale ListCache entry: the
        generation bump forces a rebuild whose near-field plan still
        covers every pair exactly once."""
        from repro.tree.cache import ListCache

        tree = self._tree(n=300, S=12)
        cache = ListCache()
        lists_before = cache.get(tree)
        leaves = [
            l
            for l in tree.leaves()
            if tree.nodes[l].count >= 2
            and tree.nodes[l].level < tree.max_level
            and tree.nodes[l].children is None
        ]
        assert leaves
        real = octree_module.OctreeNode
        monkeypatch.setattr(
            octree_module,
            "OctreeNode",
            lambda **fields: (_ for _ in ()).throw(RuntimeError("x")),
        )
        with pytest.raises(RuntimeError):
            tree.pushdown(leaves[0])
        monkeypatch.setattr(octree_module, "OctreeNode", real)
        lists_after = cache.get(tree)
        assert lists_after is not lists_before  # stamp bumped -> rebuilt
        assert_once_cover(tree, lists_after)


# --------------------------------------------------------------------------
# surgery after resume
# --------------------------------------------------------------------------


def test_surgery_on_a_restored_tree_repairs_and_solves_bitwise():
    """checkpoint -> restore -> collapse + pushdown -> ``ListCache.get``
    rebuilds the lists -> the solve equals the un-checkpointed run's, bit
    for bit.  The checkpoint is taken with a collapsed subtree in it, so
    the restored pushdown reclaims hidden children it never allocated."""
    pts = plummer(700, seed=23).positions
    q = np.random.default_rng(23).uniform(0.5, 1.5, pts.shape[0])
    live = AdaptiveOctree(pts, S=10)
    parents_of_leaves = [
        n
        for n in live.effective_nodes()
        if n != 0
        and not live.nodes[n].is_leaf
        and all(live.nodes[c].is_leaf for c in live.effective_children(n))
    ]
    reclaimed, collapsed = parents_of_leaves[0], parents_of_leaves[-1]
    assert reclaimed != collapsed
    live.collapse(reclaimed)
    restored = tree_from_state(pts, *tree_state_arrays(live))
    assert restored is not live and len(restored.nodes) == len(live.nodes)

    results = []
    for tree in (live, restored):
        solver = FMMSolver(GravityKernel(G=1.0), order=3)
        solver.solve(tree, q, gradient=True)
        kids = tree.pushdown(reclaimed)
        assert kids and all(not tree.nodes[c].hidden for c in kids)
        tree.collapse(collapsed)
        assert_tree_invariants(tree)
        res = solver.solve(tree, q, gradient=True)
        cache = solver.list_cache
        assert cache.builds == 2
        assert_once_cover(tree, res.lists)
        results.append(res)
    a, b = results
    assert a.op_counts == b.op_counts
    assert np.array_equal(a.potential, b.potential)
    assert np.array_equal(a.gradient, b.gradient)


def test_a_restored_tree_has_every_field_a_built_one_has():
    """One constructor path: whatever ``__init__`` sets, a restore sets."""
    pts = plummer(200, seed=4).positions
    built = AdaptiveOctree(pts, S=8)
    restored = tree_from_state(pts, *tree_state_arrays(built))
    assert set(vars(restored)) == set(vars(built))
