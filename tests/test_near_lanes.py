"""The serial near field on every usable CPU: claimed chunks and sliced groups.

:func:`~repro.fmm.nearfield.evaluate_near_field` cuts the plan's tiles into
one chunk per CPU (``default_workers()``) and runs them claimed
(:func:`~repro.runtime.engine.run_claimed`); the plan slices every group of
more than ``_SLICE_PAIRS`` pairs into target-row slices.  Neither may move a
bit: a target row is one kernel call over its group's sources wherever it
runs.  The lane count is forced by monkeypatching ``default_workers``, so a
one-CPU host still runs a real split.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

import repro.fmm.nearfield as nearfield
import repro.runtime.engine as engine_module
from repro.distributions import compact_plummer
from repro.fmm.evaluator import FMMSolver
from repro.fmm.nearfield import build_near_field_plan
from repro.kernels import GravityKernel, RegularizedStokesletKernel
from repro.kernels.stokeslet_fmm import StokesletFMMSolver
from repro.runtime.engine import ExecutionEngine, run_claimed
from repro.runtime.shards import ProcessEngine
from repro.tree import AdaptiveOctree, build_interaction_lists
from repro.util.timing import Deadline, SolveDeadlineError
from tests.clouds import CLOUDS

_PLAN_ARRAYS = nearfield.PLAN_ARRAYS


def _lanes(monkeypatch, n: int) -> None:
    monkeypatch.setattr(engine_module, "default_workers", lambda: n)


def _case(kind: str, n: int, seed: int = 5):
    """``(solve(tree, engine) -> arrays)`` of one kernel's solver."""
    rng = np.random.default_rng(seed)
    if kind == "laplace":
        q = rng.uniform(-1.0, 1.0, n)

        def solve(tree, engine=None):
            res = FMMSolver(GravityKernel(softening=1e-3), order=3, engine=engine).solve(
                tree, q, gradient=True
            )
            return res.potential, res.gradient
    else:
        f = rng.standard_normal((n, 3))

        def solve(tree, engine=None):
            kernel = RegularizedStokesletKernel(epsilon=0.02)
            return (StokesletFMMSolver(kernel, order=3, engine=engine).solve(tree, f).velocity,)
    return solve


def _assert_same(a, b) -> None:
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def _all_backends_agree(solve, tree, monkeypatch) -> None:
    """Serial at 1, 2 and 3 lanes, threads:2 and shards:2 give one result."""
    _lanes(monkeypatch, 1)
    ref = solve(tree)
    for lanes in (2, 3):
        _lanes(monkeypatch, lanes)
        _assert_same(solve(tree), ref)
    with ExecutionEngine(n_workers=2) as eng:
        _assert_same(solve(tree, eng), ref)
    with ProcessEngine(n_shards=2) as eng:
        _assert_same(solve(tree, eng), ref)


# ------------------------------------------------------------ bitwise lanes
@pytest.mark.parametrize("kind", ["laplace", "stokeslet"])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_lanes_are_bitwise_one_lane_threads_and_shards(cloud, kind, p2p_impl, monkeypatch):
    pts, S = CLOUDS[cloud](3)
    _all_backends_agree(_case(kind, len(pts)), AdaptiveOctree(pts, S=S), monkeypatch)


@pytest.mark.parametrize("kind", ["laplace", "stokeslet"])
def test_sliced_compact_plummer_is_bitwise(kind, p2p_impl, monkeypatch):
    """Compact Plummer 2k at S=246, the tree whose one group held half the
    pairs: its groups are sliced, and slicing, lanes, threads and shards
    all give the unsliced one-lane bits."""
    pts = compact_plummer(2000, velocity_scale=1.5, seed=1).positions
    tree = AdaptiveOctree(pts, S=246)
    plan = build_near_field_plan(tree, build_interaction_lists(tree))
    assert plan.tile_weights.max() <= nearfield._SLICE_PAIRS
    solve = _case(kind, len(pts))
    _all_backends_agree(solve, tree, monkeypatch)

    _lanes(monkeypatch, 1)
    sliced = solve(tree)
    monkeypatch.setattr(nearfield, "_SLICE_PAIRS", 2**62)
    whole = build_near_field_plan(tree, build_interaction_lists(tree))
    assert whole.tile_weights.max() > 1_000_000  # one group, 1.84 M of 3.75 M pairs
    assert whole.n_groups < plan.n_groups and whole.total_pairs == plan.total_pairs
    _assert_same(solve(tree), sliced)


# ---------------------------------------------------------------- the plan
def _group_sources(plan) -> list[bytes]:
    """Each group's source bodies, run after run, as bytes."""
    out = []
    for g in range(plan.n_groups):
        runs = range(plan.run_ptr[g], plan.run_ptr[g + 1])
        out.append(np.concatenate(
            [plan.order[plan.src_lo[r]:plan.src_hi[r]] for r in runs] or [np.empty(0, int)]
        ).tobytes())
    return out


def _sources_of_targets(plan) -> dict[int, bytes]:
    src = _group_sources(plan)
    return {
        int(t): src[g]
        for g in range(plan.n_groups)
        for t in plan.tgt_idx[plan.tgt_ptr[g]:plan.tgt_ptr[g + 1]]
    }


@pytest.mark.parametrize("cap", [1, 64, 2000])
@pytest.mark.parametrize("cloud", sorted(CLOUDS))
def test_slices_cover_every_target_once_over_its_group_sources(cloud, cap, monkeypatch):
    pts, S = CLOUDS[cloud](3)
    tree = AdaptiveOctree(pts, S=S)
    whole = build_near_field_plan(tree, build_interaction_lists(tree))
    monkeypatch.setattr(nearfield, "_SLICE_PAIRS", cap)
    plan = build_near_field_plan(tree, build_interaction_lists(tree))

    # every target exactly once, each over its unsliced group's sources
    assert np.array_equal(np.sort(plan.tgt_idx), np.sort(whole.tgt_idx))
    assert np.unique(plan.tgt_idx).size == plan.tgt_idx.size
    assert _sources_of_targets(plan) == _sources_of_targets(whole)
    assert plan.total_pairs == whole.total_pairs
    # each slice at most the cap, or one target row
    rows = np.diff(plan.tgt_ptr)
    assert ((rows * plan.src_cnt <= cap) | (rows == 1)).all()
    if (np.diff(whole.tgt_ptr) * whole.src_cnt > cap).any():
        assert plan.n_groups > whole.n_groups


@pytest.mark.parametrize("cap", [2**14, 2**18])
def test_a_refresh_with_slices_is_a_fresh_build(cap, monkeypatch):
    """A refit that moves bodies between leaves keeps the shape: the plan
    is refreshed from the kept grouping, and with slicing on it is still
    a fresh build, array for array."""
    monkeypatch.setattr(nearfield, "_SLICE_PAIRS", cap)
    pts = compact_plummer(2000, velocity_scale=1.5, seed=1).positions
    tree = AdaptiveOctree(pts, S=246)
    lists = build_interaction_lists(tree)
    before = build_near_field_plan(tree, lists)
    assert np.diff(before.tgt_ptr).max() > 1 and before.tile_weights.max() <= cap
    donor, receiver = int(tree.order[0]), int(tree.order[-1])
    tree.points[donor] = tree.points[receiver]
    sg = tree.structure_generation
    tree.refit()
    assert tree.structure_generation == sg
    plan = build_near_field_plan(tree, lists)
    stats = lists.nearfield_plan_stats
    assert (stats["builds"], stats["refreshes"]) == (1, 1)
    assert plan.total_pairs != before.total_pairs
    fresh = build_near_field_plan(tree, build_interaction_lists(tree))
    for name in _PLAN_ARRAYS:
        assert np.array_equal(getattr(plan, name), getattr(fresh, name)), name
    assert plan.total_pairs == fresh.total_pairs and stats["tiles"] == fresh.n_tiles


# --------------------------------------------------------- failure semantics
class Boom(RuntimeError):
    pass


class _Probe(GravityKernel):
    """A Laplace kernel that records every ``near_tiles`` call's start and
    return; a call over tile ``bad`` raises, every other one first sleeps
    ``nap`` seconds (so a helper's chunk outlives the caller's failure)."""

    def __init__(self, bad=None, nap=0.0, on_call=None):
        super().__init__(softening=1e-3)
        self.bad, self.nap, self.on_call = bad, nap, on_call
        self.started, self.returned = [], []
        self._lock = threading.Lock()

    def near_tiles(self, pts, q, plan, tiles, pot, grad):
        with self._lock:
            self.started.append(time.perf_counter())
        if self.on_call is not None:
            self.on_call()
        try:
            if self.bad is not None and self.bad in list(tiles):
                raise Boom(f"tile {self.bad}")
            time.sleep(self.nap)
            super().near_tiles(pts, q, plan, tiles, pot, grad)
        finally:
            with self._lock:
                self.returned.append(time.perf_counter())


def _plummer_tree():
    pts = compact_plummer(2000, velocity_scale=1.5, seed=1).positions
    return AdaptiveOctree(pts, S=64), np.random.default_rng(3).uniform(-1, 1, 2000)


@pytest.mark.parametrize("lanes", [2, 3])
@pytest.mark.parametrize("bad", ["first", "last"])
def test_a_raising_chunk_arrives_unwrapped_after_every_claimed_chunk(lanes, bad, monkeypatch):
    _lanes(monkeypatch, lanes)
    tree, q = _plummer_tree()
    n_tiles = build_near_field_plan(tree, build_interaction_lists(tree)).n_tiles
    kernel = _Probe(bad=0 if bad == "first" else n_tiles - 1, nap=0.15)
    solver = FMMSolver(kernel, order=3)
    with pytest.raises(Boom, match="tile") as exc_info:
        solver.solve(tree, q, gradient=True)
    raised = time.perf_counter()
    assert type(exc_info.value) is Boom
    # every call that started had returned when the error reached us ...
    assert len(kernel.started) == len(kernel.returned) >= 1
    assert max(kernel.returned) <= raised
    # ... and none starts later: nothing writes the outputs once we are back
    time.sleep(0.3)
    assert len(kernel.started) == len(kernel.returned)
    # the solver stays usable and exact
    kernel.bad = None
    kernel.nap = 0.0
    _lanes(monkeypatch, 1)
    ref = solver.solve(tree, q, gradient=True)
    _lanes(monkeypatch, lanes)
    res = solver.solve(tree, q, gradient=True)
    _assert_same((res.potential, res.gradient), (ref.potential, ref.gradient))


class _ExpiresInNearField(Deadline):
    """A long deadline that reads expired once the near field has begun."""

    def __init__(self):
        super().__init__(3600.0)
        self.expired = False

    def remaining(self) -> float:
        return -1.0 if self.expired else super().remaining()


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_an_expired_deadline_in_the_near_field_raises_and_the_solver_stays_usable(
    lanes, monkeypatch
):
    _lanes(monkeypatch, lanes)
    tree, q = _plummer_tree()
    deadline = _ExpiresInNearField()
    kernel = _Probe(nap=0.02, on_call=lambda: setattr(deadline, "expired", True))
    solver = FMMSolver(kernel, order=3)
    with pytest.raises(SolveDeadlineError) as exc_info:
        solver.solve(tree, q, gradient=True, deadline=deadline)
    raised = time.perf_counter()
    assert exc_info.value.phase == "P2P"
    assert len(kernel.started) == len(kernel.returned) and max(kernel.returned) <= raised
    # nothing is claimed once the caller has seen the expiry
    assert len(kernel.started) <= lanes
    res = solver.solve(tree, q, gradient=True, deadline=Deadline(3600.0))
    _lanes(monkeypatch, 1)
    ref = solver.solve(tree, q, gradient=True)
    _assert_same((res.potential, res.gradient), (ref.potential, ref.gradient))


def test_one_lane_starts_no_thread(monkeypatch):
    """``default_workers() == 1``: the chunks run inline; no pool is made
    and no thread is started."""
    _lanes(monkeypatch, 1)
    monkeypatch.setattr(engine_module, "_helpers", None)

    def no_thread(self):
        raise AssertionError(f"a one-lane solve started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    tree, q = _plummer_tree()
    FMMSolver(GravityKernel(softening=1e-3), order=3).solve(tree, q, gradient=True)
    f = np.random.default_rng(4).standard_normal((tree.n_bodies, 3))
    StokesletFMMSolver(order=3).solve(tree, f)
    assert engine_module._helpers is None


# -------------------------------------------------------------- run_claimed
def test_the_caller_runs_what_no_helper_started(monkeypatch):
    """Every helper busy elsewhere: the caller runs every thunk itself and
    returns without waiting for the helpers; each thunk runs once."""
    _lanes(monkeypatch, 3)
    pool = engine_module._helper_pool(2)
    release = threading.Event()
    for _ in range(len(pool._threads)):
        pool.submit(lambda: release.wait(10.0))  # park every helper
    try:
        ran = []
        t0 = time.perf_counter()
        run_claimed([lambda i=i: ran.append((i, threading.current_thread())) for i in range(5)])
        assert time.perf_counter() - t0 < 5.0  # not parked behind the helpers
        assert sorted(i for i, _ in ran) == list(range(5))
        assert {t for _, t in ran} == {threading.current_thread()}
    finally:
        release.set()


def test_concurrent_callers_run_each_thunk_once(monkeypatch):
    """Four callers at once share the helpers (two solver threads of a
    server do), more lanes than this host's CPUs, a short switch interval:
    every thunk of every caller runs exactly once, and each caller returns
    only when its own thunks are done."""
    _lanes(monkeypatch, 3)
    n_callers, n_thunks = 4, 60
    counts = [[0] * n_thunks for _ in range(n_callers)]
    lock = threading.Lock()
    done_early = []

    def thunk(c, i):
        with lock:
            counts[c][i] += 1

    def caller(c):
        run_claimed([lambda i=i: thunk(c, i) for i in range(n_thunks)])
        with lock:
            if counts[c] != [1] * n_thunks:
                done_early.append(c)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(c,)) for c in range(n_callers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert counts == [[1] * n_thunks] * n_callers and not done_early
    assert len(engine_module._helpers._threads) >= 2


@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_after_a_raise_nothing_more_is_claimed(lanes, monkeypatch):
    """Every thunk raises: each lane runs at most one, and the error of
    thunk 0 — the first claimed, the first in order — is the one raised."""
    _lanes(monkeypatch, lanes)
    ran = []

    def fail(i):
        ran.append(i)
        time.sleep(0.01)
        raise Boom(f"thunk {i}")

    with pytest.raises(Boom, match="thunk 0$"):
        run_claimed([lambda i=i: fail(i) for i in range(20)])
    assert 0 in ran and len(ran) <= lanes


def test_solves_in_flight_share_the_lanes(monkeypatch):
    """Two CPUs, another solve in flight: this one runs one lane — its near
    field is one kernel call and starts no helper; alone again, two."""
    _lanes(monkeypatch, 2)
    tree, q = _plummer_tree()
    kernel = _Probe()
    solver = FMMSolver(kernel, order=3)
    ref = solver.solve(tree, q, gradient=True)
    assert len(kernel.started) == 2 and engine_module.claimed_lanes() == 2
    kernel.started.clear()
    with engine_module.solve_in_flight():
        res = solver.solve(tree, q, gradient=True)
    assert len(kernel.started) == 1 and engine_module._solves == 0
    _assert_same((res.potential, res.gradient), (ref.potential, ref.gradient))
