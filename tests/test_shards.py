"""Sharded multi-process FMM backend: determinism, halo exchange, failure.

The core property: the union of per-shard results
is **element-wise identical** to the single-process solver — at any shard
count, for both kernels.  The backend earns this by
construction (whole-class matmuls assigned to single shards, row-owner
merges replayed in the serial class order; see DESIGN.md §14), and these
tests assert it bit for bit with ``np.array_equal`` on raw float arrays.

Also covered: shard sessions survive strength swaps and refit-only
geometry refreshes, a killed worker is respawned by the shard supervisor (and
degrades to exact serial re-execution only when respawn is disabled),
and the result surface a sharded solve reports.  The full chaos matrix
lives in ``test_shard_supervision.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributions import plummer, uniform_cube
from repro.expansions.spherical import SphericalExpansion
from repro.fmm.evaluator import FMMSolver
from repro.kernels.laplace import GravityKernel
from repro.kernels.stokeslet import RegularizedStokesletKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.runtime.engine import ExecutionEngine
from repro.runtime.shards import (
    ProcessEngine,
    ShardExecutionError,
)
from repro.tree.octree import AdaptiveOctree


def _cloud(n=1500, seed=11):
    pts = plummer(n, seed=seed).positions
    rng = np.random.default_rng(seed + 1)
    q = rng.standard_normal(n)
    return pts, q


def _solve(kernel, tree, q, *, engine=None, order=3, expansion=None):
    solver = FMMSolver(kernel, order=order, expansion=expansion, engine=engine)
    res = solver.solve(tree, q, gradient=True)
    return solver, res


# ----------------------------------------------------------- bitwise identity
@pytest.mark.parametrize("n_shards", [1, 2, 4])
def test_laplace_bitwise_identical_to_serial(n_shards):
    """Union of shard results == serial solve, element-wise, any shard count."""
    pts, q = _cloud()
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    with ProcessEngine(n_shards=n_shards) as eng:
        _, serial = _solve(kernel, tree, q)
        solver, sharded = _solve(kernel, tree, q, engine=eng)
    assert np.array_equal(serial.potential, sharded.potential)
    assert np.array_equal(serial.gradient, sharded.gradient)
    assert solver.degraded_runs == 0
    assert solver.last_shard_result is not None
    assert solver.last_shard_result.n_shards == n_shards


def test_laplace_spherical_backend_bitwise():
    pts, q = _cloud(n=1200, seed=19)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=20)
    exp = SphericalExpansion(4)
    with ProcessEngine(n_shards=3) as eng:
        _, serial = _solve(kernel, tree, q, expansion=exp)
        _, sharded = _solve(kernel, tree, q, expansion=exp, engine=eng)
    assert np.array_equal(serial.potential, sharded.potential)
    assert np.array_equal(serial.gradient, sharded.gradient)


def test_stokeslet_bitwise_identical_to_serial():
    pts, _ = _cloud(n=1000, seed=23)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((1000, 3))
    kernel = RegularizedStokesletKernel(epsilon=0.02)
    tree = AdaptiveOctree(pts, S=24)
    serial = StokesletFMMSolver(kernel, order=3).solve(tree, f)
    with ProcessEngine(n_shards=2) as eng:
        solver = StokesletFMMSolver(kernel, order=3, engine=eng)
        sharded = solver.solve(tree, f)
    assert np.array_equal(serial.velocity, sharded.velocity)
    assert solver.degraded_runs == 0
    assert solver.last_shard_result is not None


def test_stokeslet_bitwise_under_each_p2p_body(p2p_impl):
    """shards:2 == serial bitwise for the 4-pass Stokeslet under both near
    field bodies: the workers adopt the parent's library, or none."""
    pts, _ = _cloud(n=800, seed=29)
    f = np.random.default_rng(29).standard_normal((800, 3))
    kernel = RegularizedStokesletKernel(epsilon=0.02)
    tree = AdaptiveOctree(pts, S=24)
    serial = StokesletFMMSolver(kernel, order=3).solve(tree, f)
    with ProcessEngine(n_shards=2) as eng:
        solver = StokesletFMMSolver(kernel, order=3, engine=eng)
        sharded = solver.solve(tree, f)
    assert solver.degraded_runs == 0 and solver.last_shard_result is not None
    assert np.array_equal(serial.velocity, sharded.velocity)


def test_workers_adopt_the_parents_p2p_kernel(p2p_impl):
    """The plan carries the parent's compiled library file (or ``None``):
    every worker maps exactly that file — or none, and runs the NumPy body
    — so shards == serial bitwise under both implementations."""
    from repro.kernels import _native

    pts, q = _cloud(n=900, seed=31)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    lib = _native.library()
    assert (lib is None) == (p2p_impl == "numpy")
    with ProcessEngine(n_shards=2) as eng:
        _, serial = _solve(kernel, tree, q)
        solver, sharded = _solve(kernel, tree, q, engine=eng)
        mapped = []
        for proc in eng._procs:
            with open(f"/proc/{proc.pid}/maps") as fh:
                mapped.append({line.split()[-1] for line in fh if "_p2p-" in line})
    assert solver.degraded_runs == 0
    assert np.array_equal(serial.potential, sharded.potential)
    assert np.array_equal(serial.gradient, sharded.gradient)
    assert mapped == [set() if lib is None else {lib.path}] * 2


# ------------------------------------- the reduced translation, every back end
def _laplace_case(pts, *, S, order, seed):
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=S)
    q = np.random.default_rng(seed).standard_normal(pts.shape[0])

    def solve(engine=None):
        solver, res = _solve(kernel, tree, q, engine=engine, order=order)
        return solver, res.lists, (res.potential, res.gradient)

    return solve


def _stokeslet_case(pts, *, S, order, seed):
    kernel = RegularizedStokesletKernel(epsilon=0.02)
    tree = AdaptiveOctree(pts, S=S)
    f = np.random.default_rng(seed).standard_normal((pts.shape[0], 3))

    def solve(engine=None):
        solver = StokesletFMMSolver(kernel, order=order, engine=engine)
        res = solver.solve(tree, f)
        return solver, res.lists, (res.velocity,)

    return solve


@pytest.fixture(scope="module")
def reduction_cases():
    """The solves where ``n_coeffs - (p+1)^2`` is large or the translation
    arrays meet the other phases, each with its serial answer: (i) a
    uniform cube at order 6 (84 -> 49 wide), (ii) an adaptive Plummer tree
    (M2L's locals must land before the first L2L add), (iii) the 4-channel
    Stokeslet solve (channels share the octet layout and the direction
    blocks)."""
    cases = {
        "uniform-o6": _laplace_case(
            uniform_cube(2500, seed=3).positions, S=8, order=6, seed=4
        ),
        "plummer": _laplace_case(plummer(1500, seed=11).positions, S=12, order=4, seed=12),
        "stokeslet-4-pass": _stokeslet_case(
            plummer(900, seed=23).positions, S=24, order=4, seed=5
        ),
    }
    out = {}
    for name, solve in cases.items():
        _, _, serial = solve()
        out[name] = (solve, serial)
    return out


@pytest.mark.parametrize("backend", ["threads:2", "shards:1", "shards:2", "shards:4"])
def test_reduced_translation_bitwise_on_every_back_end(backend, reduction_cases):
    kind, n = backend.split(":")
    engine = (
        ExecutionEngine(n_workers=int(n)) if kind == "threads"
        else ProcessEngine(n_shards=int(n))
    )
    with engine:
        for name, (solve, serial) in reduction_cases.items():
            solver, _, got = solve(engine)
            for a, b in zip(got, serial):
                assert np.array_equal(a, b), name
            assert solver.degraded_runs == 0, name


# ------------------------------------------------------- session reuse/refresh
def test_session_reuse_and_refit_refresh():
    """Strength swaps hit the installed session; a refit refreshes it in
    place (no re-pickle of the plan) — both stay bitwise identical."""
    pts, q = _cloud(n=1400, seed=29)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    with ProcessEngine(n_shards=2) as eng:
        solver = FMMSolver(kernel, order=3, engine=eng)
        ref = FMMSolver(kernel, order=3)

        r1 = solver.solve(tree, q, gradient=True)
        assert np.array_equal(ref.solve(tree, q, gradient=True).potential, r1.potential)

        # same tree, new strengths: the session is a cache hit
        q2 = q[::-1].copy()
        r2 = solver.solve(tree, q2, gradient=True, lists=r1.lists)
        assert np.array_equal(
            ref.solve(tree, q2, gradient=True, lists=r1.lists).potential,
            r2.potential,
        )

        # moved bodies + refit: same shape, new geometry -> in-place refresh
        tree.points = tree.points * 0.999
        tree.refit()
        lists = solver.list_cache.get(tree)
        r3 = solver.solve(tree, q, gradient=True, lists=lists)
        s3 = ref.solve(tree, q, gradient=True, lists=lists)
        assert np.array_equal(s3.potential, r3.potential)
        assert np.array_equal(s3.gradient, r3.gradient)
        assert solver.degraded_runs == 0

        # a near plan of another size is never rewritten into the arena
        other = AdaptiveOctree(pts[:-100], S=24)
        assert not eng._refresh_session(eng._session, other, solver.list_cache.get(other))


# ---------------------------------------------------------- failure handling
def test_worker_death_recovers_by_respawn():
    """Killing a worker mid-session no longer costs the solve: the shard
    supervisor respawns the dead worker, re-installs the plan, and the
    sharded answer stays bitwise identical — no serial degradation."""
    pts, q = _cloud(n=1200, seed=37)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    serial = FMMSolver(kernel, order=3).solve(tree, q, gradient=True)
    with ProcessEngine(n_shards=2, timeout_s=60.0) as eng:
        solver = FMMSolver(kernel, order=3, engine=eng)
        first = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, first.potential)

        eng._procs[0].terminate()
        eng._procs[0].join(timeout=10.0)
        recovered = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, recovered.potential)
        assert np.array_equal(serial.gradient, recovered.gradient)
        assert solver.degraded_runs == 0
        assert solver.last_shard_result is not None
        assert solver.last_shard_result.respawns >= 1
        assert eng.total_respawns >= 1

        # the respawned pool keeps serving subsequent solves
        again = solver.solve(tree, q, gradient=True)
        assert np.array_equal(serial.potential, again.potential)
        assert solver.degraded_runs == 0


def test_worker_death_degrades_serially_when_respawn_disabled():
    """With max_respawns=0 the legacy contract holds: a dead worker tears
    the pool down and the solver re-runs serially — same answer, through
    the one degrade ladder both solvers share."""
    from repro.obs import Telemetry

    pts, q = _cloud(n=1200, seed=37)
    f = np.random.default_rng(5).standard_normal((1200, 3))
    tree = AdaptiveOctree(pts, S=24)
    cases = {
        "laplace": (
            lambda **kw: FMMSolver(
                GravityKernel(G=1.0, softening=1e-3), order=3, **kw
            ),
            lambda solver: solver.solve(tree, q, gradient=True),
            lambda res: (res.potential, res.gradient),
        ),
        "stokeslet": (
            lambda **kw: StokesletFMMSolver(
                RegularizedStokesletKernel(epsilon=0.02), order=3, **kw
            ),
            lambda solver: solver.solve(tree, f),
            lambda res: (res.velocity,),
        ),
    }
    for kind, (make, solve, outputs) in cases.items():
        serial = outputs(solve(make()))
        telemetry = Telemetry()
        with ProcessEngine(n_shards=2, timeout_s=60.0, max_respawns=0) as eng:
            solver = make(engine=eng, telemetry=telemetry)
            for a, b in zip(outputs(solve(solver)), serial):
                assert np.array_equal(a, b), kind

            eng._procs[0].terminate()
            eng._procs[0].join(timeout=10.0)
            for a, b in zip(outputs(solve(solver)), serial):
                assert np.array_equal(a, b), kind
            assert solver.degraded_runs == 1, kind
            assert solver.last_shard_result is None, kind
            assert eng.total_serial_fallbacks == 1, kind
            snap = telemetry.metrics.snapshot()
            degraded = {k: v for k, v in snap.items() if "runtime_degraded_total" in k}
            assert degraded == {f'runtime_degraded_total{{solver="{kind}"}}': 1}

            # the pool respawns lazily and the backend recovers
            for a, b in zip(outputs(solve(solver)), serial):
                assert np.array_equal(a, b), kind
            assert solver.degraded_runs == 1, kind
            assert solver.last_shard_result is not None, kind


# ------------------------------------------------------------- result surface
def test_shard_result_reports_halo_and_idle():
    pts, q = _cloud(n=1400, seed=41)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    with ProcessEngine(n_shards=2) as eng:
        solver = FMMSolver(kernel, order=3, engine=eng)
        solver.solve(tree, q, gradient=True)
        res = solver.last_shard_result
        assert eng.last_result is res

    assert res.n_shards == 2
    assert len(res.shard_busy) == 2 and min(res.shard_busy) > 0.0
    assert res.halo_bytes > 0  # 2 shards on a Plummer ball must exchange
    assert res.halo_seconds >= 0.0 and res.barrier_seconds >= 0.0
    assert res.imbalance >= 1.0
    assert res.partition_imbalance >= 1.0


def test_engine_usable_after_close():
    pts, q = _cloud(n=900, seed=43)
    kernel = GravityKernel(G=1.0, softening=1e-3)
    tree = AdaptiveOctree(pts, S=24)
    eng = ProcessEngine(n_shards=2)
    solver = FMMSolver(kernel, order=3, engine=eng)
    r1 = solver.solve(tree, q)
    eng.close()
    assert not eng._procs
    r2 = solver.solve(tree, q)  # respawns the pool
    assert np.array_equal(r1.potential, r2.potential)
    eng.close()
    eng.close()  # idempotent


# ------------------------------------------------------------- config guards
def test_process_engine_validation():
    with pytest.raises(ValueError):
        ProcessEngine(n_shards=0)
    eng = ProcessEngine(n_shards=2)
    assert eng.n_shards == 2
    eng.close()


def test_balancer_trajectory_is_the_same_on_every_back_end():
    """The balancer reads the modeled step on every back end, and the
    engine gives the serial bits, so a simulation on serial and on
    threads:2 takes the same ``(S, state)`` path to bitwise the same
    positions.  (A simulation reaches no other back end; the shard engine
    is bitwise serial per solve, above.)"""
    from repro.distributions.generators import compact_plummer
    from repro.machine.spec import system_a
    from repro.sim.driver import Simulation, SimulationConfig

    back_ends = {
        "serial": dict(n_workers=1),
        "threads:2": dict(n_workers=2),
    }
    runs = {}
    for name, kw in back_ends.items():
        cfg = SimulationConfig(order=3, **kw)
        with Simulation(
            compact_plummer(1200, seed=43), GravityKernel(G=1.0, softening=1e-3),
            system_a(), config=cfg,
        ) as sim:
            sim.balancer.S = 24
            path = [(rec.S, rec.state) for rec in (sim.step() for _ in range(6))]
            assert (sim.engine is None) == (name == "serial")
            runs[name] = (path, sim.particles.positions.copy())
    ref_path, ref_pos = runs["serial"]
    for name, (path, pos) in runs.items():
        assert path == ref_path, name
        assert np.array_equal(pos, ref_pos), name
