"""Shard-backend benchmark gate: processes must beat threads at scale.

The ISSUE-8 acceptance bar: a large Plummer step (500k bodies by
default, ``REPRO_BENCH_SHARD_N`` overrides) through the multi-process
shard backend at 4 shards beats the 4-worker *thread* engine by >= 1.4x
— with results bitwise identical to the serial path.  Threads run the
same task graph under one GIL; the shard backend's workers each own an
interpreter, exchanging halos through shared memory, so this gate is the
repo's scaling-efficiency claim in one number.

The timing gate needs real cores: below 4 usable CPUs it is skipped (and
the workload shrinks to keep the run tractable), but the bitwise-equality
assertion runs everywhere — an oversubscribed box is exactly where
barrier/merge-ordering bugs would surface.  BLAS threading is pinned to
1 by ``conftest.py`` (the env vars are inherited by the spawned shard
workers), so any speedup is ours, not a library pool's.
"""

import gc
import os
import time

import numpy as np
import pytest

from repro.distributions.generators import plummer
from repro.fmm.evaluator import FMMSolver
from repro.kernels import LaplaceKernel
from repro.runtime.engine import ExecutionEngine
from repro.runtime.shards import ProcessEngine
from repro.tree import AdaptiveOctree, build_interaction_lists


def _best_time(fn, rounds):
    """Best-of-N wall time with the GC held off the timed region."""
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def _available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def test_bench_shard_step_speedup(benchmark):
    """4 shard processes >= 1.4x over the 4-thread engine on a big step."""
    avail = _available_cpus()
    gate_skipped = avail < 4
    n = int(os.environ.get("REPRO_BENCH_SHARD_N", "500000"))
    if gate_skipped:
        # no cores -> no timing signal; keep the correctness run tractable
        n = min(n, 100_000)
    n_shards = 4
    S = 64
    pts = plummer(n, seed=7).positions
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=True)
    rng = np.random.default_rng(7)
    q = rng.uniform(-1, 1, n)
    kernel = LaplaceKernel(softening=1e-3)

    serial = FMMSolver(kernel, order=4, folded=True)
    ref = serial.solve(tree, q, lists=lists)  # warms every shared cache
    serial_t = _best_time(lambda: serial.solve(tree, q, lists=lists), rounds=2)

    with ExecutionEngine(n_workers=n_shards) as teng:
        thr = FMMSolver(kernel, order=4, folded=True, engine=teng)
        thr_res = thr.solve(tree, q, lists=lists)
        assert np.array_equal(thr_res.potential, ref.potential)
        thread_t = _best_time(lambda: thr.solve(tree, q, lists=lists), rounds=2)

    with ProcessEngine(n_shards=n_shards) as peng:
        par = FMMSolver(kernel, order=4, folded=True, engine=peng)
        res = par.solve(tree, q, lists=lists)  # installs the shard session
        assert np.array_equal(res.potential, ref.potential), (
            "shard result drifted from serial bitwise"
        )
        assert par.degraded_runs == 0
        par_run = lambda: par.solve(tree, q, lists=lists)  # noqa: E731
        shard_t = _best_time(par_run, rounds=2)
        benchmark.pedantic(par_run, rounds=2, iterations=1)
        shard_res = par.last_shard_result

    speedup_thread = thread_t / shard_t
    speedup_serial = serial_t / shard_t
    print()
    print(
        f"shard step, {n} plummer S={S} order=4: serial {serial_t * 1e3:.0f} ms, "
        f"{n_shards} threads {thread_t * 1e3:.0f} ms, {n_shards} shards "
        f"{shard_t * 1e3:.0f} ms -> {speedup_thread:.2f}x vs threads, "
        f"{speedup_serial:.2f}x vs serial, scaling efficiency "
        f"{speedup_serial / n_shards:.2f} (halo {shard_res.halo_bytes} B in "
        f"{shard_res.halo_seconds * 1e3:.1f} ms, imbalance {shard_res.imbalance:.2f}x, "
        f"partition imbalance {shard_res.partition_imbalance:.2f}x)"
    )
    if gate_skipped:
        pytest.skip(
            f"speedup gate needs >= 4 usable CPUs (have {avail}); "
            "bitwise equality verified above"
        )
    assert speedup_thread >= 1.4, (
        f"shards only {speedup_thread:.2f}x over the thread engine at "
        f"{n_shards} shards"
    )


def test_bench_shard_recovery_overhead(benchmark):
    """Supervised recovery from one worker kill costs <= 1.5x clean.

    The ISSUE-10 acceptance bar: a sharded solve with one seeded SIGKILL
    (supervisor detects the death, respawns the worker, re-executes the
    lost phases) must finish within 1.5x the clean sharded solve at 100k
    bodies — against the pre-supervision behaviour of degrading the
    whole solve to exact serial (~n_shards x).  Bitwise equality and the
    respawn accounting are asserted on every box; the timing gate needs
    >= 2 usable CPUs (on fewer, respawn latency is drowned in
    oversubscription noise).
    """
    from repro.resilience.faults import FaultPlan, FaultSpec

    avail = _available_cpus()
    gate_skipped = avail < 2
    n = int(os.environ.get("REPRO_BENCH_RECOVERY_N", "100000"))
    if gate_skipped:
        n = min(n, 20_000)
    n_shards = 2
    S = 64
    pts = plummer(n, seed=11).positions
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree, folded=True)
    q = np.random.default_rng(11).uniform(-1, 1, n)
    kernel = LaplaceKernel(softening=1e-3)

    ref = FMMSolver(kernel, order=4, folded=True).solve(tree, q, lists=lists)

    with ProcessEngine(n_shards=n_shards) as peng:
        par = FMMSolver(kernel, order=4, folded=True, engine=peng)
        res = par.solve(tree, q, lists=lists)  # installs the shard session
        assert np.array_equal(res.potential, ref.potential)
        clean_t = _best_time(lambda: par.solve(tree, q, lists=lists), rounds=2)

        # one SIGKILL per run (the plan travels with every dispatch and
        # fires on attempt 0; the recovery attempt runs clean)
        peng.install_fault_plan(FaultPlan([FaultSpec("kill", "p2m", shard=0)]))
        respawns_before = peng.total_respawns

        def killed_run():
            faulted = par.solve(tree, q, lists=lists)
            assert np.array_equal(faulted.potential, ref.potential), (
                "recovered shard result drifted from serial bitwise"
            )

        recovery_t = _best_time(killed_run, rounds=2)
        benchmark.pedantic(killed_run, rounds=1, iterations=1)
        peng.install_fault_plan(None)
        assert par.degraded_runs == 0, "recovery fell back to serial"
        assert peng.total_respawns >= respawns_before + 2
        assert peng.total_serial_fallbacks == 0

    ratio = recovery_t / clean_t
    print()
    print(
        f"shard recovery, {n} plummer S={S} order=4 at {n_shards} shards: "
        f"clean {clean_t * 1e3:.0f} ms, one-kill recovery "
        f"{recovery_t * 1e3:.0f} ms -> {ratio:.2f}x, {peng.total_respawns} respawns "
        f"(vs ~{n_shards}x for the old degrade-to-serial path)"
    )
    if gate_skipped:
        pytest.skip(
            f"recovery gate needs >= 2 usable CPUs (have {avail}); "
            "bitwise equality and respawn accounting verified above"
        )
    assert ratio <= 1.5, (
        f"recovery cost {ratio:.2f}x the clean sharded solve (budget 1.5x)"
    )
