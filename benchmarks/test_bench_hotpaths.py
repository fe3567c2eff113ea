"""Hot-path benchmarks for the vectorized + cached interaction-list engine.

Claims asserted at benchmark scale:

* the vectorized list builder beats the per-pair scalar oracle by >= 3x on
  a 50k-body nonuniform (Plummer) tree;
* a frozen-shape simulation step performs *zero* list rebuilds — the
  shared :class:`~repro.tree.cache.ListCache` answers every lookup;
* the batched near-field engine's throughput (body pairs / s) is
  printed, and is *flat in S*: small leaves (S = 8) reach
  >= 0.3x the pairs/s of large ones (S = 64) — the cost model's
  ``C_P2P * #interactions`` assumes a per-pair cost that does not depend
  on S, so a balancer fed observed times must not be steered off small S
  by call overhead;
* the near field reads the plan in place: the Laplace kernels' one
  compiled call per tile list (``p2p_tiles``) takes <= 0.8x the time of the
  base class's gather seam — per tile three gathers, a padding mask, one
  stacked call and a scatter — over the NumPy body that runs where no
  compiler resolves (within 1e-13), and <= 0.5x that seam over the
  compiled blocks, one call per group (the same bytes), on Plummer 10k
  S=32 and uniform 10k S=8, timed alternately in one process;
* the serial near field runs on every usable CPU: its tiles cut into one
  chunk per CPU and claimed by the calling thread and the process-wide
  helpers take <= 1/1.5 the time of one lane on 2 CPUs (Plummer 10k S=32,
  and compact Plummer 2k S=246, whose oversize groups are sliced by target
  rows), alternating in one process, the same bytes; below 2 usable CPUs
  it is skipped;
* the Stokeslet near field runs compiled: at the served shape (Plummer 2k
  S=32) ``stokeslet_tiles`` takes <= 1/3 the time of the NumPy gather seam
  that runs where no compiler resolves, alternating in one process, within
  1e-13 of it;
* the plan is sized by leaves: a group's sources are leaf runs of the
  tree's body order, so on Plummer 10k S=32 the plan's arrays take <= 6 MB
  and <= 2x (16 B per near leaf pair + 24 B per body) — not one index per
  source body (11.6 MB there, 23 MB with the build's positions); the cold
  build time is printed beside it;
* the row loops behind them vectorize: the shipped ``p2p_tiles`` and
  ``stokeslet_tiles`` each take <= 1/1.6 the time of the same source built
  with vectorization off (Plummer 10k S=32), alternating in one process,
  equal byte for byte — a branch that creeps into a loop fails here, not
  in a 2x slower solve;
* the far field's leaf stages run compiled: on a far-field-bound tree
  (uniform 10k, S = 8, order 6) the library's P2M and L2P (potential and
  gradient) take <= 0.5x the time of the NumPy bodies they replace, timed
  alternately in one process and equal byte for byte;
* M2L runs over sibling octets: on a far-field-bound tree (uniform 10k,
  S = 8, order 6) the shipped M2L — reduce, <= 13 level-free direction
  blocks, expand — takes <= 0.6x the time of the per-(level, displacement)
  class loop it replaced (``tests/oracles/m2l.py``), and <= 0.85x on the
  sparsest octets found (an exponential disk), timed alternately in one
  process, so the gate does not depend on the host's speed; the block
  store is bounded by ``13 (8w)^2`` entries whatever the tree;
* M2M and L2L run one gemm per tree level over sibling octets: the
  shipped level stages take <= 0.5x the time of the per-(level, octant)
  class loop they replaced (``tests/oracles/shifts.py``) at the served
  shape (Plummer 2k, S = 32, order 3) and <= 1.0x on uniform 10k, S = 8,
  order 6, timed alternately in one process, within 1e-15 of the array
  maximum;
* the cold path hands arrays from layer to layer: on the same tree, with
  the class operators already cached, ``far_field_geometry`` from the list
  builder's pair tables boxes no dict; its time is printed beside the
  build over an empty operator store, alternating in one process, and the
  two geometries are equal array for array;
* an armed deadline costs nothing: a warm serial solve with
  ``Deadline(3600)`` takes <= 1.10x the one without (Plummer 10k S=32
  order 4, Plummer 2k S=32 order 3), alternating in one process — the
  serial sweeps walk the same task list either way, the same near-field
  chunks;
* the modeled machine is built once per tree shape: a warm
  ``HeterogeneousExecutor.time_step`` (skeleton cached, work and bytes
  from the new counts after a refit) takes <= 0.5x the per-node oracle
  (``tests/oracles/machine.py``) on compact Plummer 2k at S = 64 on
  System A (10 cores, 4 GPUs) and GPU-less System B, timed alternately in
  one process, every figure equal;
* the cold path is built level by level: on uniform 10k, S = 8, the tree
  build (nodes and node table) takes <= 1/1.5 the time of the depth-first
  build it replaced (``tests/oracles/tree.py``), timed alternately in one
  process, node for node equal; the list build beside the batched
  frontier (``tests/oracles/lists.py``) and the order-6 operator set
  beside its per-displacement assembly (``tests/oracles/expansions.py``)
  are printed, not gated;
* a frozen-shape far-field re-solve performs zero geometry rebuilds (its
  wall time is printed beside the geometry counts; the
  batched-vs-scalar-oracle equivalence is property-tested in
  ``tests/test_farfield_property.py``, and the ~100x ratio is no longer
  re-timed here — it cost three 17 s oracle sweeps per run).

Timing discipline: dict-of-lists deallocation from a previous build can
dominate the *next* build's wall clock, so the timed region runs with the
garbage collector paused (collect first, disable, re-enable after) and we
take the best of several repetitions.
"""

import gc
import time

import numpy as np
import pytest

import repro.runtime.engine as engine_module
from repro.balance.config import BalancerConfig
from repro.balance.controller import SEARCH_MAX_STEPS
from repro.distributions.generators import (
    compact_plummer,
    exponential_disk,
    plummer,
    uniform_cube,
)
from repro.expansions.cartesian import CartesianExpansion
from repro.expansions.operators import OperatorSet
from repro.fmm import farfield
from repro.fmm.evaluator import FMMSolver
from repro.fmm.farfield import FarFieldPass, far_field_geometry, laplace_far_field
from repro.fmm.nearfield import PLAN_ARRAYS, build_near_field_plan, evaluate_near_field
from repro.kernels import GravityKernel, LaplaceKernel, RegularizedStokesletKernel, _native, p2p_backend
from repro.kernels.base import Kernel
from repro.machine.executor import HeterogeneousExecutor
from repro.machine.spec import system_a, system_b
from repro.sim.driver import Simulation, SimulationConfig
from repro.tree import AdaptiveOctree, build_interaction_lists
from repro.tree.lists import FAMILIES
from repro.util.timing import Deadline
from tests.oracles import machine as machine_oracle
from tests.oracles.expansions import operator_set_per_displacement
from tests.oracles.lists import (
    build_interaction_lists_frontier,
    build_interaction_lists_scalar,
)
from tests.oracles.m2l import displacement_classes, m2l_locals
from tests.oracles.shifts import l2l_locals, m2m_multipoles, shift_classes
from tests.oracles.tree import RecursiveOctree


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


def test_bench_list_build_speedup(benchmark):
    """Vectorized list construction >= 3x over the scalar path (50k bodies)."""
    pts = plummer(50_000, seed=0).positions
    tree = AdaptiveOctree(pts, S=32)

    vec_t = _best_time(lambda: build_interaction_lists(tree), rounds=5)
    scal_t = _best_time(
        lambda: build_interaction_lists_scalar(tree), rounds=2
    )
    speedup = scal_t / vec_t
    benchmark.pedantic(
        lambda: build_interaction_lists(tree), rounds=3, iterations=1
    )
    print()
    print(
        f"list build, 50k plummer S=32: vectorized {vec_t * 1e3:.1f} ms, "
        f"scalar {scal_t * 1e3:.1f} ms, speedup {speedup:.2f}x"
    )
    assert speedup >= 3.0, f"vectorized build only {speedup:.2f}x over scalar"


def test_bench_frozen_step_zero_rebuilds(benchmark):
    """Static-strategy steps after the S search never rebuild lists."""
    ps = compact_plummer(3000, seed=1, total_mass=1.0)
    cfg = SimulationConfig(
        dt=1e-4,
        order=3,
        forces="fmm",
        strategy="static",
        balancer=BalancerConfig(s_min=8, s_max=1024),
    )
    sim = Simulation(ps, GravityKernel(G=1.0, softening=1e-3), system_a(), config=cfg)
    # the S search rebuilds the tree; static mode freezes S once it ends
    for _ in range(SEARCH_MAX_STEPS):
        sim.step()
        if sim.balancer._frozen:
            break
    assert sim.balancer._frozen, "the S search never ended"
    builds_after_search = sim.list_cache.builds
    hits_after_search = sim.list_cache.hits

    benchmark.pedantic(sim.step, rounds=4, iterations=1)

    print()
    print(
        f"{sim.step_index} static steps: builds={sim.list_cache.builds} "
        f"hits={sim.list_cache.hits}"
    )
    # the tree shape is frozen, so the 4 benchmarked steps must be all hits
    assert sim.list_cache.builds == builds_after_search
    assert sim.list_cache.hits > hits_after_search


def test_bench_near_field_throughput(benchmark):
    """Pairs/s of the batched P2P engine on a nonuniform tree."""
    n = 30_000
    pts = plummer(n, seed=2).positions
    tree = AdaptiveOctree(pts, S=48)
    lists = build_interaction_lists(tree)
    rng = np.random.default_rng(0)
    q = rng.uniform(0.5, 1.0, n)
    kernel = LaplaceKernel(softening=1e-3)
    plan = build_near_field_plan(tree, lists)

    run = lambda: evaluate_near_field(kernel, tree, lists, q, potential=True)  # noqa: E731
    best = _best_time(run, rounds=3)
    benchmark.pedantic(run, rounds=3, iterations=1)
    print()
    print(
        f"near field, 30k plummer S=48: {plan.total_pairs:,} pairs in "
        f"{best * 1e3:.1f} ms -> {plan.total_pairs / best / 1e6:.1f} Mpairs/s "
        f"({plan.n_groups} source groups)"
    )
    assert plan.total_pairs > 0


def test_bench_near_field_flat_in_s(benchmark):
    """Near-field pairs/s at S=8 >= 0.3x pairs/s at S=64 (uniform 10k)."""
    n = 10_000
    pts = uniform_cube(n, seed=4).positions
    q = np.random.default_rng(4).uniform(0.5, 1.0, n)
    kernel = GravityKernel(G=1.0)
    rate, runs = {}, {}
    for S in (8, 64):
        tree = AdaptiveOctree(pts, S=S)
        lists = build_interaction_lists(tree)
        pairs = build_near_field_plan(tree, lists).total_pairs
        runs[S] = lambda tree=tree, lists=lists: evaluate_near_field(
            kernel, tree, lists, q, potential=True, gradient=True
        )
        rate[S] = pairs / _best_time(runs[S], rounds=5)
    benchmark.pedantic(runs[8], rounds=3, iterations=1)
    flatness = rate[8] / rate[64]
    print()
    print(
        f"near field, 10k uniform: {rate[8] / 1e6:.1f} Mpairs/s at S=8, "
        f"{rate[64] / 1e6:.1f} at S=64 -> {flatness:.2f}x"
    )
    assert flatness >= 0.3, f"S=8 near field only {flatness:.2f}x the S=64 pairs/s"


def test_bench_near_field_reads_the_plan_in_place(benchmark, monkeypatch):
    """Plan-indexed near field <= 0.5x the gather seam over the compiled
    blocks, with the same bytes, and <= 0.8x that seam over the NumPy body,
    within 1e-13 (Plummer 10k S=32, uniform 10k S=8).  The compiled seam
    makes one call per group, so its ratio carries that call overhead too:
    ~0.26x on Plummer, where the row loop dominates both sides."""
    if p2p_backend() != "native":
        pytest.skip("no C compiler resolves here: there is no plan-indexed near field")
    n = 10_000
    kernel = GravityKernel(G=1.0, softening=1e-3)
    q = np.random.default_rng(5).uniform(0.5, 1.0, n)
    lib = _native.library()
    # name: (method, library); the seams are the base class's one stacked call per tile
    methods = {
        "indexed": (GravityKernel.near_tiles, lib),
        "blocks": (Kernel.near_tiles, lib),
        "numpy": (Kernel.near_tiles, None),
    }
    for label, pts, S in (
        ("plummer_S32", plummer(n, seed=2).positions, 32),
        ("uniform_S8", uniform_cube(n, seed=4).positions, 8),
    ):
        tree = AdaptiveOctree(pts, S=S)
        plan = build_near_field_plan(tree, build_interaction_lists(tree))
        out = {}

        def run(name, plan=plan, tree=tree):
            method, library = methods[name]
            monkeypatch.setattr(_native, "_library", library)
            out[name] = (np.zeros(n), np.zeros((n, 3)))
            method(kernel, tree.points, q, plan, range(plan.n_tiles), *out[name])

        best = {name: float("inf") for name in methods}
        for _ in range(7):  # alternating: host drift hits both sides alike
            for name in best:
                best[name] = min(best[name], _best_time(lambda: run(name), rounds=1))
        monkeypatch.setattr(_native, "_library", lib)
        assert [a.tobytes() for a in out["indexed"]] == [a.tobytes() for a in out["blocks"]]
        for a, b in zip(out["indexed"], out["numpy"]):
            assert np.abs(a - b).max() <= 1e-13 * np.abs(b).max()
        ratio = {ref: best["indexed"] / best[ref] for ref in ("blocks", "numpy")}
        print()
        print(
            f"near field, 10k {label}, {plan.n_tiles} tiles: plan read in place "
            f"{best['indexed'] * 1e3:.1f} ms, gather seam over compiled blocks "
            f"{best['blocks'] * 1e3:.1f} ms ({ratio['blocks']:.2f}x), over NumPy "
            f"{best['numpy'] * 1e3:.1f} ms ({ratio['numpy']:.2f}x)"
        )
        for ref, bound in (("blocks", 0.5), ("numpy", 0.8)):
            r = ratio[ref]
            assert r <= bound, f"plan-indexed near field {r:.2f}x the {ref} gather seam ({label})"
    benchmark.pedantic(lambda: run("indexed"), rounds=2, iterations=1)


def test_bench_near_lanes(benchmark, monkeypatch):
    """The serial near field on every usable CPU (claimed chunks, one per
    CPU) >= 1.5x one lane on 2 CPUs, with the same bytes: Plummer 10k S=32
    and compact Plummer 2k S=246, whose oversize groups are sliced."""
    lanes = engine_module.default_workers()
    if lanes < 2:
        pytest.skip(f"{lanes} usable CPU: one lane is all there is, nothing to compare")
    kernel = GravityKernel(G=1.0)
    for label, pts, S in (
        ("Plummer 10k S=32", plummer(10_000, seed=1).positions, 32),
        ("compact Plummer 2k S=246",
         compact_plummer(2000, velocity_scale=1.5, seed=1).positions, 246),
    ):
        tree = AdaptiveOctree(pts, S=S)
        lists = build_interaction_lists(tree)
        q = np.random.default_rng(1).uniform(0.5, 1.0, tree.n_bodies)
        out = {}

        def run(n, tree=tree, lists=lists, q=q):
            monkeypatch.setattr(engine_module, "default_workers", lambda: n)
            out[n] = evaluate_near_field(kernel, tree, lists, q, potential=True, gradient=True)

        run(lanes)  # warm: plan built, helpers started
        best = {1: float("inf"), lanes: float("inf")}
        for _ in range(15):  # alternating: host drift hits both sides alike
            for n in best:
                best[n] = min(best[n], _best_time(lambda: run(n), rounds=1))
        assert [a.tobytes() for a in out[lanes]] == [a.tobytes() for a in out[1]]
        ratio = best[1] / best[lanes]
        print()
        print(
            f"near field, {label}: one lane {best[1] * 1e3:.2f} ms, {lanes} lanes "
            f"{best[lanes] * 1e3:.2f} ms -> {ratio:.2f}x"
        )
        assert ratio >= 1.5, f"{lanes} near-field lanes read {ratio:.2f}x one lane ({label})"
    benchmark.pedantic(lambda: run(lanes), rounds=2, iterations=1)


def test_bench_stokeslet_near_field_runs_compiled(benchmark, monkeypatch):
    """The Stokeslet near field at the served shape (Plummer 2k S=32):
    ``stokeslet_tiles`` >= 3x the NumPy gather seam, within 1e-13 of it."""
    if p2p_backend() != "native":
        pytest.skip("no C compiler resolves here: there is no compiled Stokeslet row")
    n = 2000
    tree = AdaptiveOctree(plummer(n, seed=2).positions, S=32)
    plan = build_near_field_plan(tree, build_interaction_lists(tree))
    kernel = RegularizedStokesletKernel(epsilon=1e-2)
    f = np.random.default_rng(5).standard_normal((n, 3))
    lib, out = _native.library(), {}

    def run(name):
        monkeypatch.setattr(_native, "_library", lib if name == "compiled" else None)
        out[name] = np.zeros((n, 3))
        kernel.near_tiles(tree.points, f, plan, range(plan.n_tiles), out[name], None)

    best = {"compiled": float("inf"), "numpy": float("inf")}
    for _ in range(7):  # alternating: host drift hits both sides alike
        for name in best:
            best[name] = min(best[name], _best_time(lambda: run(name), rounds=1))
    monkeypatch.setattr(_native, "_library", lib)
    ref = out["numpy"]
    assert np.abs(out["compiled"] - ref).max() <= 1e-13 * np.abs(ref).max()
    benchmark.pedantic(lambda: run("compiled"), rounds=2, iterations=1)
    speedup = best["numpy"] / best["compiled"]
    print()
    print(
        f"stokeslet near field, 2k plummer S=32: compiled {best['compiled'] * 1e3:.1f} ms "
        f"({plan.total_pairs / best['compiled'] / 1e6:.0f} Mpairs/s), NumPy seam "
        f"{best['numpy'] * 1e3:.1f} ms -> {speedup:.1f}x"
    )
    assert speedup >= 3.0, f"the compiled Stokeslet near field only {speedup:.2f}x its fallback"


def test_bench_near_plan_is_leaf_sized(benchmark):
    """The near-field plan lists source leaves, not source bodies: on
    Plummer 10k S=32 its arrays take <= 6 MB and <= 2x (16 B per near leaf
    pair + 24 B per body); a cold build's time is printed beside it."""
    n = 10_000
    tree = AdaptiveOctree(plummer(n, seed=2).positions, S=32)

    def cold():  # fresh lists: no memoized plan or grouping
        lists = build_interaction_lists(tree)
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            plan = build_near_field_plan(tree, lists)
            return time.perf_counter() - t0, plan, lists.table("near_sources").values.size
        finally:
            gc.enable()

    best, plan, leaf_pairs = min((cold() for _ in range(5)), key=lambda r: r[0])
    nbytes = sum(getattr(plan, f).nbytes for f in PLAN_ARRAYS)
    bound = min(6e6, 2 * (16 * leaf_pairs + 24 * n))
    benchmark.pedantic(cold, rounds=2, iterations=1)
    print()
    print(
        f"near-field plan, 10k plummer S=32: {nbytes / 1e6:.2f} MB of arrays for "
        f"{leaf_pairs:,} near leaf pairs (bound {bound / 1e6:.2f} MB), "
        f"cold build {best * 1e3:.1f} ms"
    )
    assert nbytes <= bound, f"near-field plan {nbytes / 1e6:.2f} MB > {bound / 1e6:.2f} MB"


def test_bench_p2p_row_is_vectorized(benchmark, tmp_path):
    """The shipped ``p2p_tiles`` and ``stokeslet_tiles`` each >= 1.6x the
    same source built with vectorization off (Plummer 10k S=32), same
    bytes: a branch that creeps into a row loop fails here instead of
    quietly costing 2x."""
    if p2p_backend() != "native":
        pytest.skip("no C compiler resolves here: there is no compiled row loop")
    scalar = tmp_path / "scalar.so"
    cc = _native.shutil.which("cc") or _native.shutil.which("gcc")
    _native._compile(cc, scalar, "-fno-tree-vectorize", "-fno-openmp-simd")
    libs = {"shipped": _native.library(), "scalar": _native._load(scalar, "")}
    n = 10_000
    tree = AdaptiveOctree(plummer(n, seed=2).positions, S=32)
    plan = build_near_field_plan(tree, build_interaction_lists(tree))
    rng = np.random.default_rng(5)
    q, f, tiles = rng.uniform(0.5, 1.0, n), rng.standard_normal((n, 3)), np.arange(plan.n_tiles)
    rows = {  # entry point -> one call of it on a library
        "p2p_tiles": lambda lib, out: lib.near_tiles(tree.points, q, plan, tiles, 1e-6, (1.0, 1.0), *out),
        "stokeslet_tiles": lambda lib, out: lib.stokeslet_tiles(tree.points, f, plan, tiles, 1e-4, 1.0, *out),
    }
    for entry, call in rows.items():
        out = {}

        def run(name):
            out[name] = (np.zeros(n), np.zeros((n, 3))) if entry == "p2p_tiles" else (np.zeros((n, 3)), None)
            call(libs[name], out[name])

        best = {name: float("inf") for name in libs}
        for _ in range(7):  # alternating: host drift hits both sides alike
            for name in best:
                best[name] = min(best[name], _best_time(lambda: run(name), rounds=1))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(*map(_outputs, out.values())))
        speedup = best["scalar"] / best["shipped"]
        print()
        print(
            f"{entry}, 10k plummer S=32 ({libs['shipped'].isa} clone): shipped "
            f"{plan.total_pairs / best['shipped'] / 1e6:.0f} Mpairs/s, vectorization off "
            f"{plan.total_pairs / best['scalar'] / 1e6:.0f} -> {speedup:.2f}x"
        )
        assert speedup >= 1.6, f"the shipped {entry} row only {speedup:.2f}x its unvectorized build"
    benchmark.pedantic(lambda: run("shipped"), rounds=2, iterations=1)


def _outputs(pair):
    return [a for a in pair if a is not None]


def test_bench_leaf_stages_native(benchmark, monkeypatch):
    """Compiled P2M + L2P (potential and gradient) <= 0.5x the NumPy bodies
    on uniform 10k S=8 order 6, same bytes."""
    if p2p_backend() != "native":
        pytest.skip("no C compiler resolves here: there are no compiled leaf stages")
    n = 10_000
    tree = AdaptiveOctree(uniform_cube(n, seed=4).positions, S=8)
    lists = build_interaction_lists(tree)
    q = np.random.default_rng(4).uniform(-1, 1, n)
    p = FarFieldPass(tree, lists, CartesianExpansion(6), charges=q, gradient=True)
    p.locals_[:] = np.random.default_rng(5).standard_normal(p.locals_.shape)
    # the leaf-gradient gemms are the same BLAS calls on both sides: once
    gk = [farfield.l2p_leaf_gradient(p.geom, p.locals_, A) for A in p._l2p_grad_mats]
    bodies, out = {"native": _native.library(), "numpy": None}, {}

    def leaf_stages(body):
        monkeypatch.setattr(_native, "_library", bodies[body])
        p.multipoles[:], p.pot[:], p.grad[:] = 0.0, 0.0, 0.0
        t0 = time.perf_counter()
        p.p2m()
        farfield.l2p(p.geom, p.plan, p._basis, p.locals_, p.pot, p.grad, gk)
        t = time.perf_counter() - t0
        out[body] = p.multipoles.tobytes() + p.pot.tobytes() + p.grad.tobytes()
        return t

    best = {"native": float("inf"), "numpy": float("inf")}
    for _ in range(9):  # alternating: host drift hits both sides alike
        for body in best:
            best[body] = min(best[body], _best_time(lambda: leaf_stages(body), rounds=1))
    assert out["native"] == out["numpy"]
    benchmark.pedantic(lambda: leaf_stages("native"), rounds=3, iterations=1)
    ratio = best["native"] / best["numpy"]
    print()
    print(
        f"leaf stages, 10k uniform S=8 order 6 ({p.geom.leaf_rows.size} leaves): P2M + "
        f"L2P (potential, gradient) compiled {best['native'] * 1e3:.1f} ms, NumPy "
        f"{best['numpy'] * 1e3:.1f} ms -> {ratio:.2f}x"
    )
    assert ratio <= 0.5, f"compiled leaf stages {ratio:.2f}x the NumPy bodies"


def _m2l_octets_vs_class_loop(pts, order=6, S=8):
    """Shipped M2L (one stage: reduce -> direction classes -> expand) against the
    oracle's per-(level, displacement) class loop on one tree, timed
    alternately in one process; returns the pass, the oracle's classes,
    both best times and the column-relative difference of the locals."""
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree)
    exp = CartesianExpansion(order)
    q = np.random.default_rng(4).uniform(-1, 1, pts.shape[0])
    p = FarFieldPass(tree, lists, exp, charges=q)
    p.p2m()
    for shift in p.geom.shift_levels:
        p.m2m(shift)
    _keys, classes = displacement_classes(tree, lists, exp)
    want = {}

    def loop():
        want["L"] = m2l_locals(classes, p.multipoles)

    shipped = p.m2l

    loop_t = shipped_t = float("inf")
    for _ in range(6):  # alternating: host drift hits both sides alike
        loop_t = min(loop_t, _best_time(loop, rounds=1))
        shipped_t = min(shipped_t, _best_time(shipped, rounds=1))
    err = np.abs(p.locals_ - want["L"]).max(axis=0) / np.abs(want["L"]).max(axis=0)
    return p, classes, shipped, shipped_t, loop_t, float(err.max())


def test_bench_m2l_octets(benchmark):
    """M2L over sibling octets <= 0.6x the per-displacement class loop on a
    uniform tree, <= 0.85x on the sparsest octets found (a thin disk)."""
    n = 10_000
    p, classes, shipped, shipped_t, loop_t, err = _m2l_octets_vs_class_loop(
        uniform_cube(n, seed=4).positions
    )
    benchmark.pedantic(shipped, rounds=2, iterations=1)
    blocks = [op for _, _, op in p.geom.m2l_classes]
    width = 8 * (p.exp.order + 1) ** 2
    assert len(blocks) <= 13 and all(op.shape == (width, width) for op in blocks)
    store = sum(op.nbytes for op in blocks)
    assert store <= 13 * width**2 * blocks[0].itemsize
    ratio = shipped_t / loop_t

    _p, disk_classes, _run, disk_shipped_t, disk_loop_t, disk_err = _m2l_octets_vs_class_loop(
        exponential_disk(n, seed=4).positions
    )
    disk_ratio = disk_shipped_t / disk_loop_t
    octet_pairs = sum(s.size for s, _, _ in p.geom.m2l_classes)
    print()
    print(
        f"M2L, 10k S=8 order 6, {p.geom.n_m2l:,} V pairs in {octet_pairs:,} octet "
        f"pairs: uniform {len(blocks)} direction blocks ({store / 1e6:.1f} MB) "
        f"{shipped_t * 1e3:.1f} ms against {len(classes)} displacement classes "
        f"{loop_t * 1e3:.1f} ms -> {ratio:.2f}x; exponential disk "
        f"{disk_shipped_t * 1e3:.1f} against {len(disk_classes)} classes "
        f"{disk_loop_t * 1e3:.1f} ms -> {disk_ratio:.2f}x "
        f"(max column-relative difference {max(err, disk_err):.1e})"
    )
    assert max(err, disk_err) <= 1e-12
    assert ratio <= 0.6, f"octet M2L {ratio:.2f}x the per-class loop (uniform)"
    assert disk_ratio <= 0.85, f"octet M2L {disk_ratio:.2f}x the per-class loop (disk)"


def _shifts_vs_class_loop(pts, *, S, order):
    """Shipped M2M + L2L (one gemm per tree level over octets) against the
    oracle's per-(level, octant) class loop on one tree, timed alternately
    in one process; returns the pass, the loop's class count, both best
    times per sweep and the worst difference relative to the array maximum.

    A sample is ten sweeps back to back: a served-shape sweep is ~0.3 ms
    of small calls, and the caches the GC fence leaves cold would
    otherwise cost either side a large, uneven share of one sweep."""
    tree = AdaptiveOctree(pts, S=S)
    lists = build_interaction_lists(tree)
    exp = CartesianExpansion(order)
    p = FarFieldPass(tree, lists, exp, charges=np.random.default_rng(4).uniform(-1, 1, len(pts)))
    p.p2m()
    leaves = p.multipoles.copy()
    m2l = np.random.default_rng(5).standard_normal(p.locals_.shape)  # what M2L leaves
    classes = shift_classes(tree, exp)
    want = {}

    reps = 10

    def loop():
        for _ in range(reps):
            want["M"] = m2m_multipoles(classes, leaves)
            want["L"] = l2l_locals(classes, m2l)

    def shipped():
        for _ in range(reps):
            p.multipoles[:] = leaves
            p.locals_[:] = m2l
            for shift in p.geom.shift_levels:
                p.m2m(shift)
            for shift in reversed(p.geom.shift_levels):
                p.l2l(shift)

    loop_t = shipped_t = float("inf")
    for _ in range(7):  # alternating: host drift hits both sides alike
        loop_t = min(loop_t, _best_time(loop, rounds=2) / reps)
        shipped_t = min(shipped_t, _best_time(shipped, rounds=2) / reps)
    err = max(
        np.abs(p.multipoles - want["M"]).max() / np.abs(want["M"]).max(),
        np.abs(p.locals_ - want["L"]).max() / np.abs(want["L"]).max(),
    )
    return p, len(classes), shipped_t, loop_t, float(err)


def test_bench_shift_levels(benchmark):
    """M2M + L2L as one gemm per level over octets <= 0.5x the
    per-(level, octant) class loop at the served shape (Plummer 2k, S=32,
    order 3) and <= 1.0x on a far-field-bound tree (uniform 10k, S=8,
    order 6), within 1e-15 of the array maximum."""
    cases = {
        "served": (plummer(2_000, seed=1).positions, 32, 3, 0.5),
        "uniform": (uniform_cube(10_000, seed=4).positions, 8, 6, 1.0),
    }
    lines, failed = [], []
    for name, (pts, S, order, gate) in cases.items():
        p, n_classes, shipped_t, loop_t, err = _shifts_vs_class_loop(pts, S=S, order=order)
        ratio = shipped_t / loop_t
        levels = len(p.geom.shift_levels)
        lines.append(
            f"{name} (n={len(pts)}, S={S}, order {order}): {levels} levels "
            f"{shipped_t * 1e3:.2f} ms against {n_classes} classes {loop_t * 1e3:.2f} ms "
            f"-> {ratio:.2f}x (max difference {err:.1e} of the maximum)"
        )
        assert err <= 1e-15, (name, err)
        if ratio > gate:
            failed.append(f"{name} {ratio:.2f}x > {gate}x")
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print()
    print("M2M + L2L over level octets vs the class loop: " + "; ".join(lines))
    assert not failed, f"level shifts slower than the gate: {failed}"


def test_bench_cold_geometry_from_tables(benchmark):
    """Lists -> geometry from the pair tables over a warm operator set,
    boxing no dict view; the build over an empty store — one whole set
    assembled, two shift stacks and 13 blocks — is timed beside it and
    builds the same geometry."""
    n = 10_000
    tree = AdaptiveOctree(uniform_cube(n, seed=4).positions, S=8)
    exp = CartesianExpansion(6)
    warm = build_interaction_lists(tree)
    far_field_geometry(tree, warm, exp)  # the operator set, once

    def geometry(route):
        lists = build_interaction_lists(tree)
        if route == "tables":
            lists.operator_store = warm.operator_store
        out = {}

        def hand_off():
            out["geom"] = far_field_geometry(tree, lists, exp)

        return _best_time(hand_off, rounds=1), lists, out["geom"]

    best = {"tables": float("inf"), "empty": float("inf")}
    first, last = {}, {}
    for _ in range(5):  # alternating: host drift hits every side alike
        for route in best:
            t, lists, geom = geometry(route)
            best[route] = min(best[route], t)
            assert not [name for name in FAMILIES if lists.materialized(name)]
            n_ops = len(lists.operator_store.get(exp, tree.root_box.size)[0])
            assert lists.farfield_geometry_stats["op_builds"] == (
                n_ops if route == "empty" else 0
            )
            first.setdefault(route, geom)
            last[route] = geom
    benchmark.pedantic(lambda: geometry("tables"), rounds=2, iterations=1)

    # the empty store builds the warm store's geometry, array for array
    ref, cold = first["tables"], last["empty"]
    assert np.array_equal(cold.eff_rows, ref.eff_rows)
    assert len(cold.shift_levels) == len(ref.shift_levels)
    for a, b in zip(cold.shift_levels, ref.shift_levels):
        assert a.level == b.level
        for name in ("child_rows", "parent_rows", "octet", "octant", "m2m", "l2l"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    assert len(cold.m2l_classes) == len(ref.m2l_classes)
    for (a0, a1, aop), (b0, b1, bop) in zip(cold.m2l_classes, ref.m2l_classes):
        assert np.array_equal(a0, b0) and np.array_equal(a1, b1)
        assert np.array_equal(aop, bop)
    assert np.array_equal(cold.leaf_rows, ref.leaf_rows)
    # over the warm store every operator is the set's own array: nothing is
    # rescaled per tree
    again = last["tables"]
    for a, b in zip(
        (*(op for s in again.shift_levels for op in (s.m2m, s.l2l)),
         *(op for *_, op in again.m2l_classes)),
        (*(op for s in ref.shift_levels for op in (s.m2m, s.l2l)),
         *(op for *_, op in ref.m2l_classes)),
    ):
        assert a is b
    print()
    print(
        f"far-field geometry, 10k uniform S=8 order 6, "
        f"{len(ref.m2l_classes)} classes / {ref.n_m2l:,} pairs: from tables over a "
        f"warm operator set {best['tables'] * 1e3:.1f} ms; over an empty store (one "
        f"set of {n_ops} operators assembled) {best['empty'] * 1e3:.1f} ms"
    )


def test_bench_armed_deadline_is_free(benchmark):
    """A warm serial solve under ``Deadline(3600)`` <= 1.10x the unarmed
    one (Plummer 10k S=32 order 4, Plummer 2k S=32 order 3), same bits."""
    for n, order, rounds in ((10_000, 4, 9), (2_000, 3, 25)):
        tree = AdaptiveOctree(plummer(n, seed=1).positions, S=32)
        q = np.random.default_rng(1).uniform(-1, 1, n)
        solver = FMMSolver(LaplaceKernel(softening=1e-3), order=order)
        out = {}

        def run(armed):
            deadline = Deadline(3600.0) if armed else None
            res = solver.solve(tree, q, gradient=True, deadline=deadline)
            out[armed] = (res.potential, res.gradient)

        run(False)  # warm: lists, geometry, plan and operators cached
        best = {False: float("inf"), True: float("inf")}
        for _ in range(rounds):  # alternating: host drift hits both sides alike
            for armed in best:
                best[armed] = min(best[armed], _best_time(lambda: run(armed), rounds=1))
        assert all(np.array_equal(a, b) for a, b in zip(out[True], out[False]))
        ratio = best[True] / best[False]
        print()
        print(
            f"warm serial solve, Plummer {n} S=32 order {order}: unarmed "
            f"{best[False] * 1e3:.2f} ms, Deadline(3600) {best[True] * 1e3:.2f} ms "
            f"-> {ratio:.2f}x"
        )
        assert ratio <= 1.10, f"an armed deadline costs {ratio:.2f}x (Plummer {n})"
    benchmark.pedantic(lambda: run(True), rounds=2, iterations=1)


def test_bench_modeled_step_vs_oracle(benchmark):
    """A warm modeled step <= 0.5x the per-node oracle's, same figures."""
    pts = compact_plummer(2000, velocity_scale=1.5, seed=1).positions
    machines = {
        "system A 10C 4G": system_a(timing_noise=0.05).with_resources(n_cores=10, n_gpus=4),
        "system B": system_b(timing_noise=0.05),
    }
    for name, machine in machines.items():
        tree = AdaptiveOctree(pts, S=64)
        kernel = GravityKernel(G=1.0)
        ex = {
            side: HeterogeneousExecutor(machine, order=4, kernel=kernel, seed=3)
            for side in ("shipped", "oracle")
        }
        step = {
            "shipped": lambda: ex["shipped"].time_step(tree),
            "oracle": lambda: machine_oracle.time_step(ex["oracle"], tree, lists),
        }
        lists = ex["oracle"].list_cache.get(tree)
        for run in step.values():  # warm: lists and skeleton built, noise in step
            run()
        best = {side: float("inf") for side in step}
        for _ in range(15):  # alternating: host drift hits both sides alike
            out = {}
            for side, run in step.items():
                tree.refit()  # new counts, same shape: what a warm step sees
                lists = ex["oracle"].list_cache.get(tree)

                def timed(side=side, run=run):
                    out[side] = run()

                best[side] = min(best[side], _best_time(timed, rounds=1))
            new, old = out["shipped"], out["oracle"]
            assert (new.cpu_time, new.gpu_time, new.per_gpu, new.gpu_efficiency) == (
                old.cpu_time, old.gpu_time, old.per_gpu, old.gpu_efficiency
            )
        ratio = best["shipped"] / best["oracle"]
        print()
        print(
            f"modeled step, compact Plummer 2k S=64 on {name} "
            f"({len(tree.effective_nodes())} nodes): shipped {best['shipped'] * 1e6:.0f} us, "
            f"per-node oracle {best['oracle'] * 1e6:.0f} us -> {ratio:.2f}x"
        )
        assert ratio <= 0.5, f"modeled step {ratio:.2f}x the per-node oracle on {name}"
    benchmark.pedantic(step["shipped"], rounds=3, iterations=1)


def test_bench_cold_construction(benchmark):
    """The level-by-level tree build >= 1.5x the depth-first one; the list
    build and the operator set printed beside their oracles."""
    pts = uniform_cube(10_000, seed=0).positions
    tree = AdaptiveOctree(pts, S=8)
    ref = RecursiveOctree(pts, S=8)
    fields = "id level parent children lo hi key_lo key_hi size is_leaf hidden".split()
    assert all(
        [getattr(a, f) for f in fields] == [getattr(b, f) for f in fields]
        and a.center.tobytes() == b.center.tobytes()
        for a, b in zip(tree.nodes, ref.nodes)
    ) and len(tree.nodes) == len(ref.nodes)
    exp, h = CartesianExpansion(6), tree.root_box.size
    stages = {  # shipped, oracle, alternating rounds
        "tree": (lambda: AdaptiveOctree(pts, S=8),
                 lambda: RecursiveOctree(pts, S=8).node_table(), 9),
        "lists": (lambda: build_interaction_lists(tree),
                  lambda: build_interaction_lists_frontier(tree), 9),
        "operator set": (lambda: OperatorSet.build(exp, h),
                         lambda: operator_set_per_displacement(exp, h), 2),
    }
    best = {}
    for stage, (shipped, oracle, rounds) in stages.items():
        for _ in range(rounds):  # alternating: host drift hits both sides alike
            for side, fn in (("shipped", shipped), ("oracle", oracle)):
                t = _best_time(fn, rounds=1)
                best[stage, side] = min(best.get((stage, side), t), t)
    print()
    for stage in stages:
        new, old = best[stage, "shipped"], best[stage, "oracle"]
        print(
            f"cold {stage}, uniform 10k S=8 order 6: shipped {new * 1e3:.1f} ms, "
            f"oracle {old * 1e3:.1f} ms -> {old / new:.2f}x"
        )
    speedup = best["tree", "oracle"] / best["tree", "shipped"]
    assert speedup >= 1.5, f"level-by-level tree build only {speedup:.2f}x the depth-first one"
    benchmark.pedantic(stages["tree"][0], rounds=3, iterations=1)


def test_bench_far_field(benchmark):
    """Batched far-field wall time (50k bodies), zero geometry rebuilds on
    a re-solve."""
    n = 50_000
    pts = plummer(n, seed=3).positions
    tree = AdaptiveOctree(pts, S=32)
    lists = build_interaction_lists(tree)
    rng = np.random.default_rng(3)
    q = rng.uniform(-1, 1, n)
    exp = CartesianExpansion(4)

    run = lambda: laplace_far_field(tree, lists, exp, charges=q)  # noqa: E731
    run()  # warm the geometry/body-plan/basis caches
    builds_after_warmup = lists.farfield_geometry_stats["builds"]

    batched_t = _best_time(run, rounds=5)
    benchmark.pedantic(run, rounds=3, iterations=1)

    # frozen shape: every timed re-solve must have hit the geometry cache
    assert lists.farfield_geometry_stats["builds"] == builds_after_warmup == 1

    stats = lists.farfield_geometry_stats
    print()
    print(
        f"far field, 50k plummer S=32 order={exp.order} ({exp.backend}): batched "
        f"{batched_t * 1e3:.1f} ms, geometry builds {stats['builds']}, hits {stats['hits']}"
    )
