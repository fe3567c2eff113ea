"""Shard supervisor chaos matrix (DESIGN.md §16).

The recovery ladder under seeded process-level faults: a worker killed,
stalled, or cut off mid-solve is detected by the supervisor (pipe EOF or
heartbeat deadline), respawned against the retained shared-memory plan,
and only the lost phases re-execute — with the final answer **bitwise
identical** to the serial solver, because every phase re-zeroes its own
accumulation state before accumulating (restart idempotence).  Serial
fallback happens only after ``max_respawns`` strikes, and never silently:
``total_serial_fallbacks`` counts it and the failure reason names why.

Kept tractable for small CI boxes: the quick tests run 2 shards on tiny
clouds; the wider matrix (shards 2 and 4, both kernels, every fault
kind) is ``-m chaos``.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.expansions.cartesian import CartesianExpansion
from repro.distributions import plummer
from repro.fmm.evaluator import FMMSolver
from repro.kernels.laplace import GravityKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.runtime.shards import ProcessEngine, ShardExecutionError
from repro.tree.cache import ListCache
from repro.tree.octree import AdaptiveOctree
from repro.util.timing import Deadline, SolveDeadlineError

KERNEL = GravityKernel(G=1.0, softening=1e-3)


def _cloud(n=1000, seed=23):
    pts = plummer(n, seed=seed).positions
    rng = np.random.default_rng(seed + 1)
    return pts, rng.standard_normal(n)


def _plan(kind, match, *, shard=0, delay_s=0.001, fire_attempts=1):
    return FaultPlan(
        [
            FaultSpec(
                kind,
                match,
                shard=shard,
                delay_s=delay_s,
                fire_attempts=fire_attempts,
                max_fires=1,
            )
        ]
    )


# -------------------------------------------------------------- kill recovery
@pytest.mark.parametrize("stage", ["p2m", "m2m", "m2l", "l2p"])
def test_kill_at_far_field_stage_recovers_bitwise(stage):
    """SIGKILL during the far-field pass: respawn + full-pass redo, same
    bits, no serial degradation."""
    pts, q = _cloud()
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=120.0) as eng:
        eng.install_fault_plan(_plan("kill", stage))
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        res = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, res.potential)
        assert np.array_equal(serial.gradient, res.gradient)
        assert solver.degraded_runs == 0
        last = solver.last_shard_result
        assert last.respawns == 1
        # the far-field pass had not completed, so the redo starts at 0
        assert last.restart_phases == [0]
        assert last.partial_redos == 0
        assert eng.total_serial_fallbacks == 0


def test_kill_in_near_field_redoes_only_lost_phase():
    """A worker killed after the far-field pass completed restarts at the
    near phase — the partial re-execution the supervisor exists for."""
    pts, q = _cloud()
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=120.0) as eng:
        eng.install_fault_plan(_plan("kill", "near-self", shard=0))
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        res = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, res.potential)
        assert np.array_equal(serial.gradient, res.gradient)
        last = solver.last_shard_result
        assert last.respawns == 1
        assert last.partial_redos == 1
        assert last.restart_phases == [1]  # far-field pass 0 was kept
        assert eng.total_partial_redos == 1


def test_kill_at_translation_expand_redoes_only_that_pass():
    """A worker killed at ``m2l`` in the Stokeslet's far-field pass
    (four charge channels, full-width locals not yet assigned) restarts at
    the far phase, 0 — the phase re-zeroes ``M`` and ``L`` and M2L keeps
    its octet arrays to itself, so the redo stays bitwise."""
    pts, _ = _cloud(n=700, seed=59)
    tree = AdaptiveOctree(pts, S=24)
    forces = np.random.default_rng(5).standard_normal((len(pts), 3))
    serial = StokesletFMMSolver(order=3).solve(tree, forces)
    with ProcessEngine(n_shards=2, timeout_s=120.0) as eng:
        eng.install_fault_plan(_plan("kill", "m2l"))
        solver = StokesletFMMSolver(order=3, engine=eng)
        res = solver.solve(tree, forces)
        assert np.array_equal(serial.velocity, res.velocity)
        assert solver.degraded_runs == 0
        last = solver.last_shard_result
        assert last.respawns == 1
        assert last.restart_phases == [0]
        assert last.partial_redos == 0


def test_stokeslet_kill_in_near_field_keeps_the_far_phase():
    """A Stokeslet solve has two phases like a Laplace one: a worker
    killed at ``near-self`` redoes the near field only."""
    pts, _ = _cloud(n=700, seed=61)
    tree = AdaptiveOctree(pts, S=24)
    forces = np.random.default_rng(6).standard_normal((len(pts), 3))
    serial = StokesletFMMSolver(order=3).solve(tree, forces)
    with ProcessEngine(n_shards=2, timeout_s=120.0) as eng:
        eng.install_fault_plan(_plan("kill", "near-self", shard=0))
        solver = StokesletFMMSolver(order=3, engine=eng)
        res = solver.solve(tree, forces)
        assert np.array_equal(serial.velocity, res.velocity)
        assert solver.degraded_runs == 0
        last = solver.last_shard_result
        assert last.respawns == 1
        assert last.restart_phases == [1]  # the far-field phase was kept
        assert last.partial_redos == 1


def _plan_kill_near():
    return _plan("kill", "near-self")


# ------------------------------------------------------------------ pipe drop
def test_pipe_drop_recovers_bitwise():
    """A severed control pipe (worker still computing) is detected at the
    next supervision read and repaired by respawn."""
    pts, q = _cloud(seed=29)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=120.0) as eng:
        eng.install_fault_plan(_plan("pipe_drop", "m2l"))
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        res = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, res.potential)
        assert solver.degraded_runs == 0
        assert solver.last_shard_result.respawns >= 1


# ------------------------------------------------------------ heartbeat stall
def test_stall_detected_within_heartbeat_bound():
    """A wedged worker (sleeps without heartbeating) surfaces within the
    heartbeat deadline, not the full barrier timeout."""
    pts, q = _cloud(seed=31)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=300.0, heartbeat_s=5.0) as eng:
        eng.install_fault_plan(_plan("stall", "m2l", delay_s=120.0))
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        t0 = time.monotonic()
        res = solver.solve(tree, q, gradient=True)
        elapsed = time.monotonic() - t0
        assert np.array_equal(serial.potential, res.potential)
        assert solver.degraded_runs == 0
        assert solver.last_shard_result.respawns == 1
        # detection + respawn + redo must be heartbeat-scale, nowhere near
        # the 120s stall or the 300s barrier timeout
        assert elapsed < 60.0


def test_heartbeat_timeout_reason_when_recovery_disabled():
    """Satellite contract: with respawn off, a wedged worker surfaces as
    ShardExecutionError(reason='heartbeat timeout') in bounded wall-clock."""
    pts, q = _cloud(n=600, seed=37)
    tree = AdaptiveOctree(pts, S=24)
    lists = ListCache().get(tree)
    with ProcessEngine(
        n_shards=2, timeout_s=300.0, heartbeat_s=3.0, max_respawns=0
    ) as eng:
        eng.install_fault_plan(_plan("stall", "m2l", delay_s=120.0))
        t0 = time.monotonic()
        with pytest.raises(ShardExecutionError) as err:
            eng.solve_laplace(
                tree, lists, CartesianExpansion(3), KERNEL, q, gradient=True
            )
        assert time.monotonic() - t0 < 60.0
        assert err.value.reason == "heartbeat timeout"
        assert eng.total_serial_fallbacks == 1


# ---------------------------------------------------------- respawn budget
def test_persistent_failure_stops_at_max_respawns():
    """A fault that keeps firing exhausts exactly ``max_respawns``
    recoveries, then raises — never an unbounded respawn loop."""
    pts, q = _cloud(n=600, seed=41)
    tree = AdaptiveOctree(pts, S=24)
    lists = ListCache().get(tree)
    with ProcessEngine(n_shards=2, timeout_s=120.0, max_respawns=1) as eng:
        eng.install_fault_plan(
            FaultPlan([FaultSpec("kill", "p2m", shard=0, fire_attempts=99)])
        )
        with pytest.raises(ShardExecutionError) as err:
            eng.solve_laplace(
                tree, lists, CartesianExpansion(3), KERNEL, q, gradient=True
            )
        assert err.value.reason == "worker died"
        assert eng.total_respawns == 1  # exactly max_respawns, no more


def test_persistent_failure_degrades_to_exact_serial_via_solver():
    """Through the solver, exhausting max_respawns lands on the serial
    fallback — still the right answer, counted as a degraded run."""
    pts, q = _cloud(n=600, seed=43)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=120.0, max_respawns=1) as eng:
        eng.install_fault_plan(
            FaultPlan([FaultSpec("kill", "p2m", shard=0, fire_attempts=99)])
        )
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        res = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, res.potential)
        assert np.array_equal(serial.gradient, res.gradient)
        assert solver.degraded_runs == 1
        assert eng.total_respawns == 1
        assert eng.total_serial_fallbacks == 1


def _hold_barrier_lock(eng) -> threading.Event:
    """Stand in for a worker killed while it held the barrier's lock:
    another thread owns the lock until the returned event is set."""
    taken, release = threading.Event(), threading.Event()

    def hold(lock):
        with lock:
            taken.set()
            release.wait()

    threading.Thread(target=hold, args=(eng._barrier._cond,), daemon=True).start()
    taken.wait()
    return release


def test_unobtainable_barrier_lock_degrades_to_serial_within_heartbeat():
    """A worker killed while it held the barrier's lock never releases
    it: the recovery's barrier reset gives up after the heartbeat window
    and the solve degrades to the exact serial path instead of hanging."""
    pts, q = _cloud(n=600, seed=47)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    held: list = []
    out: dict = {}
    with ProcessEngine(n_shards=2, timeout_s=120.0, heartbeat_s=3.0) as eng:
        respawn = eng._respawn

        def respawn_holding_the_lock(s):
            respawn(s)
            if not held:
                held.append(_hold_barrier_lock(eng))

        eng._respawn = respawn_holding_the_lock
        eng.install_fault_plan(_plan("kill", "p2m"))
        solver = FMMSolver(KERNEL, order=3, engine=eng)

        def solve():
            t0 = time.monotonic()
            out["res"] = solver.solve(tree, q, gradient=True)
            out["elapsed"] = time.monotonic() - t0

        # on a thread, so a reset that blocks fails the test, not the run
        worker = threading.Thread(target=solve, daemon=True)
        worker.start()
        worker.join(eng.heartbeat_s + 60.0)
        for release in held:
            release.set()
        worker.join(30.0)
    assert held
    assert out.get("elapsed", float("inf")) < eng.heartbeat_s + 30.0
    assert np.array_equal(serial.potential, out["res"].potential)
    assert np.array_equal(serial.gradient, out["res"].gradient)
    assert solver.degraded_runs == 1
    assert eng.total_serial_fallbacks == 1


class _ExpiresAtLook(Deadline):
    """The budget runs out at the N-th look (the first is the dispatcher's)."""

    def __init__(self, n_looks: int) -> None:
        super().__init__(3600.0)
        self.looks_left = n_looks

    def remaining(self) -> float:
        self.looks_left -= 1
        return 1e-3 if self.looks_left > 0 else -1.0


def test_expired_solve_with_an_unobtainable_barrier_lock_starts_a_fresh_pool():
    """The deadline path's barrier reset has the same bound: the expired
    solve still raises SolveDeadlineError (never a serial re-run), the
    wedged pool is torn down, and the next solve spawns a fresh one."""
    pts, q = _cloud(n=600, seed=49)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(KERNEL, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=60.0, heartbeat_s=2.0) as eng:
        solver = FMMSolver(KERNEL, order=3, engine=eng)
        solver.solve(tree, q, gradient=True)  # warm: pool spawned, session installed
        reset = eng._reset_barrier
        held = []
        eng._reset_barrier = lambda: held.append(_hold_barrier_lock(eng)) or reset()
        try:
            with pytest.raises(SolveDeadlineError) as err:
                solver.solve(tree, q, gradient=True, deadline=_ExpiresAtLook(5))
        finally:
            for release in held:
                release.set()
        del eng._reset_barrier
        assert held and err.value.phase.startswith("shards")
        assert eng._procs == [] and eng._session is None
        res = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, res.potential)
        assert np.array_equal(serial.gradient, res.gradient)
        assert solver.degraded_runs == 0
        assert eng.total_serial_fallbacks == 0


def test_thread_engine_rejects_process_fault_kinds():
    from repro.runtime.engine import ExecutionEngine

    eng = ExecutionEngine()
    try:
        with pytest.raises(ValueError, match="process-level"):
            eng.install_fault_plan(FaultPlan([FaultSpec("kill", "p2m")]))
    finally:
        eng.close()


def test_unpicklable_fault_plan_rejected_by_process_engine():
    plan = FaultPlan([FaultSpec("nan", "p2m", action=lambda: None)])
    with ProcessEngine(n_shards=2) as eng:
        with pytest.raises(ValueError, match="picklable"):
            eng.install_fault_plan(plan)


# ------------------------------------------------------------- chaos matrix
@pytest.mark.chaos
@pytest.mark.parametrize("n_shards", [2, 4])
@pytest.mark.parametrize("kernel_name", ["laplace", "stokeslet"])
@pytest.mark.parametrize("fault", ["kill", "stall", "pipe_drop"])
def test_chaos_matrix_bitwise_after_recovery(n_shards, kernel_name, fault):
    """The acceptance matrix: every process fault kind, at shards 2 and
    4, for both kernels — recovered results identical to serial, serial
    fallback never reached."""
    pts, q = _cloud(n=700, seed=53)
    tree = AdaptiveOctree(pts, S=24)
    heartbeat = 6.0 if fault == "stall" else None
    plan = _plan("stall", "m2l", delay_s=120.0) if fault == "stall" else _plan(
        fault, "m2l"
    )
    with ProcessEngine(
        n_shards=n_shards, timeout_s=300.0, heartbeat_s=heartbeat
    ) as eng:
        eng.install_fault_plan(plan)
        if kernel_name == "stokeslet":
            forces = np.random.default_rng(5).standard_normal((len(pts), 3))
            serial = StokesletFMMSolver(expansion=CartesianExpansion(3)).solve(tree, forces)
            solver = StokesletFMMSolver(
                expansion=CartesianExpansion(3), engine=eng
            )
            res = solver.solve(tree, forces)
            assert np.array_equal(serial.velocity, res.velocity)
        else:
            serial = FMMSolver(KERNEL, order=3).solve(
                tree, q, gradient=True
            )
            solver = FMMSolver(KERNEL, order=3, engine=eng)
            res = solver.solve(tree, q, gradient=True)
            assert np.array_equal(serial.potential, res.potential)
            assert np.array_equal(serial.gradient, res.gradient)
        assert solver.degraded_runs == 0
        assert eng.total_serial_fallbacks == 0
        assert eng.total_respawns >= 1
