"""Tests for the real execution engine and its FMM task graphs.

Two layers:

* **engine mechanics** — dependency ordering, cycle detection, failure
  propagation, interval/lane bookkeeping, the §IV-D op registry;
* **the determinism contract** — the whole point of the delta/ordered-merge
  design: running the real far+near pipeline on 1, 2, or ``cpu_count``
  threads produces **bitwise identical** potentials and gradients, for
  Laplace on both expansion backends and for the Stokeslet 4-pass solve,
  and repeated parallel runs are identical to each other even though
  thread interleavings differ.
"""

import ctypes
import glob
import os
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.distributions.generators import gaussian_blobs, plummer, uniform_cube
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.spherical import SphericalExpansion
from repro.fmm.evaluator import FMMSolver
from repro.fmm.nearfield import chunk_ranges
from repro.kernels import LaplaceKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.obs import Telemetry
from repro.runtime.engine import (
    MAX_ATTEMPTS,
    ExecutionEngine,
    GraphTaskError,
    TaskGraphBuilder,
    default_workers,
    run_in_order,
)
from repro.tree import AdaptiveOctree, build_interaction_lists
from repro.util.timing import Deadline

_FAMILIES = {
    "plummer": plummer,
    "blobs": gaussian_blobs,
    "uniform": uniform_cube,
}
_BACKENDS = {"cartesian": CartesianExpansion, "spherical": SphericalExpansion}

#: the worker-count sweep: a pool of one, the smallest shared pool, one
#: thread per visible CPU
_WORKER_COUNTS = sorted({1, 2, os.cpu_count() or 1})


# --------------------------------------------------------------------------
# engine mechanics
# --------------------------------------------------------------------------


class TestEngineConfig:
    """The engine's one option, ``n_workers``, and who builds an engine."""

    def test_defaults(self):
        assert ExecutionEngine().n_workers == default_workers() >= 1

    def test_serial_is_not_parallel(self):
        """One worker means no engine at all: the simulation runs the
        exact serial sweeps; two build a two-thread engine."""
        from repro.kernels.laplace import GravityKernel
        from repro.machine.spec import system_a
        from repro.sim.driver import Simulation, SimulationConfig

        def engine(n_workers):
            cfg = SimulationConfig(n_workers=n_workers, order=2)
            with Simulation(
                plummer(64, seed=1), GravityKernel(), system_a(), config=cfg
            ) as sim:
                return sim.engine

        assert engine(1) is None
        assert engine(2).n_workers == 2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ExecutionEngine(n_workers=0)


def test_default_workers_is_affinity_aware(monkeypatch):
    """Threads, shards and the ledger's machine spec count the CPUs this
    process may run on, not the host's."""
    from repro.obs.ledger import machine_spec
    from repro.runtime.shards import ProcessEngine

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    shards = ProcessEngine()
    try:
        assert ExecutionEngine().n_workers == shards.n_shards == 3
    finally:
        shards.close()
    assert machine_spec()["cpu_available"] == 3


class TestGraphBuilder:
    def test_ids_are_sequential(self):
        g = TaskGraphBuilder()
        a = g.add(lambda: None, label="a")
        b = g.add(lambda: None, label="b", deps=(a,))
        assert (a, b) == (0, 1) and len(g) == 2

    def test_forward_dep_rejected(self):
        g = TaskGraphBuilder()
        with pytest.raises(ValueError):
            g.add(lambda: None, label="bad", deps=(0,))


@pytest.mark.parametrize("n_workers", _WORKER_COUNTS)
class TestEngineExecution:
    def test_dependency_order_respected(self, n_workers):
        """Every task observes all of its dependencies' effects."""
        done: set[str] = set()
        lock = threading.Lock()
        order_ok: list[bool] = []

        def mk(name, needs):
            def fn():
                with lock:
                    order_ok.append(all(d in done for d in needs))
                    done.add(name)

            return fn

        g = TaskGraphBuilder()
        a = g.add(mk("a", []), label="a")
        b = g.add(mk("b", ["a"]), label="b", deps=(a,))
        c = g.add(mk("c", ["a"]), label="c", deps=(a,))
        g.add(mk("d", ["b", "c"]), label="d", deps=(b, c))
        with ExecutionEngine(n_workers=n_workers) as eng:
            res = eng.run(g)
        assert all(order_ok) and len(done) == 4
        assert res.n_tasks == 4 and len(res.intervals) == 4

    def test_intervals_sane(self, n_workers):
        g = TaskGraphBuilder()
        for i in range(20):
            g.add(lambda: sum(range(500)), label=f"t{i}")
        with ExecutionEngine(n_workers=n_workers) as eng:
            res = eng.run(g)
        assert res.n_workers == n_workers
        workers = {iv.worker for iv in res.intervals}
        assert workers <= set(range(n_workers))
        for iv in res.intervals:
            assert 0.0 <= iv.start <= iv.end <= res.makespan + 1e-9
        # per-lane intervals never overlap (a thread runs one task at a time)
        for w in workers:
            lane = sorted(
                (iv for iv in res.intervals if iv.worker == w),
                key=lambda iv: iv.start,
            )
            for prev, nxt in zip(lane, lane[1:]):
                assert prev.end <= nxt.start + 1e-9

    def test_exception_propagates(self, n_workers):
        """A persistently failing task surfaces as GraphTaskError after the
        retry budget, with the original exception chained as ``__cause__``."""
        g = TaskGraphBuilder()
        g.add(lambda: None, label="ok")
        boom = g.add(lambda: 1 / 0, label="boom")
        g.add(lambda: None, label="after", deps=(boom,))
        with ExecutionEngine(n_workers=n_workers) as eng:
            with pytest.raises(GraphTaskError) as exc_info:
                eng.run(g)
        err = exc_info.value
        assert err.label == "boom"
        assert err.attempts == MAX_ATTEMPTS
        assert isinstance(err.__cause__, ZeroDivisionError)

    def test_empty_graph(self, n_workers):
        with ExecutionEngine(n_workers=n_workers) as eng:
            res = eng.run(TaskGraphBuilder())
        assert res.n_tasks == 0 and res.makespan == 0.0


def test_cycle_detected():
    """A cycle (hand-built, the builder forbids forward deps) raises."""
    g = TaskGraphBuilder()
    a = g.add(lambda: None, label="a")
    b = g.add(lambda: None, label="b", deps=(a,))
    g.nodes[a].deps = (b,)  # a <-> b
    for n_workers in (1, 2):
        with ExecutionEngine(n_workers=n_workers) as eng:
            with pytest.raises(RuntimeError, match="cycle"):
                eng.run(g)


def test_run_in_order_walks_insertion_order():
    """The serial walk: tasks in insertion order on the calling thread, one
    span per run of same-op tasks with their summed applications, and a
    deadline check naming the op after every task."""
    ran, checks = [], []
    g = TaskGraphBuilder()
    for label, op, apps in (("a", "P2M", 4), ("b", "M2M", 2), ("c", "M2M", 3), ("d", "P2M", 1)):
        g.add(lambda label=label: ran.append((label, threading.get_ident())), label=label,
              op=op, applications=apps, deps=(len(g) - 1,) if len(g) else ())

    class Recording(Deadline):
        def check(self, phase):
            checks.append(phase)

    tel = Telemetry()
    run_in_order(g, tracer=tel.tracer, deadline=Recording(3600.0))
    assert ran == [(x, threading.get_ident()) for x in "abcd"]
    assert checks == ["P2M", "M2M", "M2M", "P2M"]
    spans = [(e["name"], e["args"]["applications"]) for e in tel.tracer.events if e.get("ph") == "X"]
    assert spans == [("P2M", 4), ("M2M", 5), ("P2M", 1)]


def test_chunk_ranges_partition():
    ranges = chunk_ranges([5, 1, 1, 1, 8, 1, 1], 3)
    # contiguous, complete, in order
    assert ranges[0][0] == 0 and ranges[-1][1] == 7
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo
    assert len(ranges) <= 3
    assert chunk_ranges([], 4) == []
    assert chunk_ranges([3, 3], 8) == [(0, 1), (1, 2)]


# --------------------------------------------------------------------------
# the determinism contract on the real pipeline
# --------------------------------------------------------------------------


def _laplace_results(tree, lists, q, backend, order, engine):
    solver = FMMSolver(
        LaplaceKernel(softening=1e-3),
        expansion=_BACKENDS[backend](order),
        engine=engine,
    )
    res = solver.solve(tree, q, gradient=True, lists=lists)
    return res.potential, res.gradient, solver


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    family=st.sampled_from(sorted(_FAMILIES)),
    n=st.integers(min_value=60, max_value=500),
    S=st.integers(min_value=1, max_value=32),
    seed=st.integers(min_value=0, max_value=2**16),
    backend=st.sampled_from(sorted(_BACKENDS)),
)
def test_laplace_bitwise_identical_across_workers(
    family, n, S, seed, backend
):
    """Engine runs at {1, 2, cpu_count} workers == the serial path, bitwise."""
    pts = _FAMILIES[family](n, seed=seed).positions
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree)
    q = np.random.default_rng(seed).uniform(-1, 1, n)

    ref_pot, ref_grad, _ = _laplace_results(tree, lists, q, backend, 3, None)
    for n_workers in _WORKER_COUNTS:
        with ExecutionEngine(n_workers=n_workers) as eng:
            pot, grad, solver = _laplace_results(tree, lists, q, backend, 3, eng)
        assert np.array_equal(pot, ref_pot), (n_workers, "potential")
        assert np.array_equal(grad, ref_grad), (n_workers, "gradient")
        assert solver.last_engine_result.n_workers == n_workers


def test_laplace_bitwise_under_each_p2p_body(p2p_impl):
    """threads:2 == serial bitwise whichever body ``LaplaceKernel.pairwise``
    runs (a compiled tile drops the GIL, so here two really run at once)."""
    pts = plummer(1200, seed=9).positions
    tree = AdaptiveOctree(pts, S=20)
    lists = build_interaction_lists(tree)
    q = np.random.default_rng(9).uniform(-1, 1, len(pts))
    ref_pot, ref_grad, _ = _laplace_results(tree, lists, q, "cartesian", 3, None)
    with ExecutionEngine(n_workers=2) as eng:
        pot, grad, solver = _laplace_results(tree, lists, q, "cartesian", 3, eng)
    assert solver.last_engine_result is not None and solver.degraded_runs == 0
    assert np.array_equal(pot, ref_pot) and np.array_equal(grad, ref_grad)


def test_stokeslet_bitwise_identical_across_workers():
    """The Stokeslet solve (one far-field pass of four charge channels)
    matches serial bitwise at every width."""
    rng = np.random.default_rng(5)
    n = 400
    pts = plummer(n, seed=5).positions
    f = rng.standard_normal((n, 3))
    tree = AdaptiveOctree(pts, S=16)

    ref = StokesletFMMSolver(order=3).solve(tree, f).velocity

    def far_tasks(solver):
        return sum(
            not iv.label.startswith("near") for iv in solver.last_engine_result.intervals
        )

    for n_workers in _WORKER_COUNTS:
        with ExecutionEngine(n_workers=n_workers) as eng:
            solver = StokesletFMMSolver(order=3, engine=eng)
            u = solver.solve(tree, f).velocity
            laplace = FMMSolver(LaplaceKernel(), order=3, engine=eng)
            laplace.solve(tree, f[:, 0], gradient=True)
        assert np.array_equal(u, ref), n_workers
        # one far-field DAG: exactly as many far-field tasks as a Laplace
        # solve on the same tree declares
        assert far_tasks(solver) == far_tasks(laplace) > 0


def test_stokeslet_bitwise_under_each_p2p_body(p2p_impl):
    """threads:2 == serial bitwise for the 4-pass Stokeslet whichever near
    field runs: the compiled ``stokeslet_tiles`` or the NumPy gather seam,
    one stacked call per tile."""
    n = 600
    pts = plummer(n, seed=6).positions
    f = np.random.default_rng(6).standard_normal((n, 3))
    tree = AdaptiveOctree(pts, S=20)
    ref = StokesletFMMSolver(order=3).solve(tree, f).velocity
    with ExecutionEngine(n_workers=2) as eng:
        solver = StokesletFMMSolver(order=3, engine=eng)
        u = solver.solve(tree, f).velocity
    assert solver.last_engine_result is not None and solver.degraded_runs == 0
    assert np.array_equal(u, ref)


def _openblas_thread_count():
    """OpenBLAS's thread-count getter from the library NumPy bundles
    (``numpy.libs/libscipy_openblas64_*.so``), or ``None`` where that
    library or its symbol is absent.  ``dlopen`` of a loaded path returns
    the loaded library, so this reads the count NumPy's own calls run at."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas64_*.so"))):
        getter = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            return getter
    return None


def test_solves_leave_the_blas_thread_count_alone():
    """"Bitwise identical to serial" holds at one fixed BLAS thread count
    (DESIGN.md section 10): serial bits themselves move, by rounding, between
    1 and 2 OpenBLAS threads.  So no back end may change the count inside
    a solve: it reads the same before and after serial and threads:2
    solves, Laplace and Stokeslet, and threads == serial bitwise."""
    get_threads = _openblas_thread_count()
    if get_threads is None:
        pytest.skip("NumPy's BLAS here is not its bundled OpenBLAS with a thread-count getter")
    n = 2000
    tree = AdaptiveOctree(uniform_cube(n, seed=9).positions, S=8)
    lists = build_interaction_lists(tree)
    rng = np.random.default_rng(9)
    q, f = rng.uniform(-1, 1, n), rng.standard_normal((n, 3))

    def solve(engine):
        pot, grad, _ = _laplace_results(tree, lists, q, "cartesian", 4, engine)
        u = StokesletFMMSolver(order=4, engine=engine).solve(tree, f).velocity
        return pot, grad, u

    before = get_threads()
    ref = solve(None)
    assert get_threads() == before
    with ExecutionEngine(n_workers=2) as eng:
        par = solve(eng)
    assert get_threads() == before >= 1
    for a, b in zip(par, ref):
        assert np.array_equal(a, b)


def test_repeated_parallel_runs_are_identical():
    """Same graph, different thread interleavings, identical bits."""
    n = 600
    pts = gaussian_blobs(n, seed=13).positions
    tree = AdaptiveOctree(pts, S=8)
    lists = build_interaction_lists(tree)
    q = np.random.default_rng(13).uniform(-1, 1, n)

    runs = []
    with ExecutionEngine(n_workers=max(2, os.cpu_count() or 2)) as eng:
        solver = FMMSolver(LaplaceKernel(softening=1e-3), order=3, engine=eng)
        for _ in range(5):
            res = solver.solve(tree, q, gradient=True, lists=lists)
            runs.append((res.potential.copy(), res.gradient.copy()))
    for pot, grad in runs[1:]:
        assert np.array_equal(pot, runs[0][0])
        assert np.array_equal(grad, runs[0][1])


def test_one_worker_is_a_pool_of_one():
    """``n_workers=1`` runs the same scheduler on one pool thread: every
    interval lands on worker 0, off the calling thread, with the serial
    bits for Laplace and the Stokeslet."""
    pts = plummer(500, seed=21).positions
    tree = AdaptiveOctree(pts, S=16)
    lists = build_interaction_lists(tree)
    rng = np.random.default_rng(21)
    q, f = rng.uniform(-1, 1, len(pts)), rng.standard_normal((len(pts), 3))
    ref_pot, ref_grad, _ = _laplace_results(tree, lists, q, "cartesian", 3, None)
    ref_u = StokesletFMMSolver(order=3).solve(tree, f).velocity
    threads = set()
    with ExecutionEngine(n_workers=1) as eng:
        eng.fault_hook = lambda label, attempt: threads.add(threading.get_ident())
        pot, grad, laplace = _laplace_results(tree, lists, q, "cartesian", 3, eng)
        stokes = StokesletFMMSolver(order=3, engine=eng)
        u = stokes.solve(tree, f).velocity
    assert np.array_equal(pot, ref_pot) and np.array_equal(grad, ref_grad)
    assert np.array_equal(u, ref_u)
    for solver in (laplace, stokes):
        res = solver.last_engine_result
        assert res.n_workers == 1 and len(res.intervals) == res.n_tasks
        assert {iv.worker for iv in res.intervals} == {0}
    assert len(threads) == 1 and threading.get_ident() not in threads
