"""The four workloads of the step_budget benchmark.

Every workload has the same shape: ``setup`` builds the inputs and whatever
must be running before the first timed operation (engine, shard workers,
server and connections), ``measure`` times *cold* operations (fresh state)
and then *warm* ones for the requested number of seconds, checks the
outputs, and — in the traced pass — derives the per-layer numbers from the
spans the wrappers recorded.

Geometry is part of a workload's definition, like a mesh.  Plummer pair
counts differ by +-10% between position samples, and the balancer's S
search is chaotic in the positions *and* the masses (20-step runs from 14 s
to 24 s), which would swamp a 10% regression.  So the one-shot solves take
their body positions from a fixed dataset seed and draw the masses from
``--seed``; ``collapse_sim`` applies one of the 48 symmetries of the cube,
chosen by ``--seed``, to a fixed compact Plummer sphere — every coordinate
changes, the octree and the balancer's trajectory do not.  ``serve_mix``
requests carry ``(n, seed)`` and the server draws the bodies, so every
request is a fresh sample and the medians average over dozens of them.
"""

from __future__ import annotations

import itertools
import json
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

import harness
from harness import (
    Clock,
    OpTracer,
    Recorder,
    SpanTable,
    peak_rss_mb,
    percentile_with_tail,
)

# ------------------------------------------------------------------- sizes

#: ``err`` = bound on (gradient, potential) relative L2 error against direct
#: summation on the accuracy sample: 1.5x what was measured when the
#: benchmark was defined (README, baseline table)
SCALES = {
    "full": {
        "plummer": {"dist": "plummer", "n": 10000, "S": 32, "order": 4,
                    "err": (2.4e-3, 1.6e-4)},
        "uniform": {"dist": "uniform_cube", "n": 10000, "S": 8, "order": 6,
                    "err": (1.5e-4, 2.0e-6)},
        "sim": {"n": 2000, "steps": 36, "order": 4, "err": (4.0e-3, 4.0e-4)},
        "serve": {"n": 2000, "order": 3, "burst": 4, "verify": 2, "n_cold": 5},
        "setup_probes": 6,
        "n_cold": 3,
        "min_warm": 4,
        "accuracy_sample": 512,
        "kernel_block": 1024,
    },
    # test_smoke.py: the same code paths in seconds
    "toy": {
        "plummer": {"dist": "plummer", "n": 500, "S": 32, "order": 3,
                    "err": (2e-2, 2e-3)},
        "uniform": {"dist": "uniform_cube", "n": 500, "S": 8, "order": 3,
                    "err": (2e-2, 2e-3)},
        "sim": {"n": 500, "steps": 7, "order": 3, "err": (2e-2, 2e-3)},
        "serve": {"n": 500, "order": 3, "burst": 1, "verify": 1, "n_cold": 1},
        "setup_probes": 1,
        "n_cold": 1,
        "min_warm": 2,
        "accuracy_sample": 128,
        "kernel_block": 256,
    },
}

DATASET_SEED = 1

FARFIELD_OPS = ("p2m", "m2m", "m2l", "l2l", "l2p")
#: layer metric -> (span name, children to leave out; None = all, i.e.
#: self time) for the spans every workload's operations contain
COMMON_SPANS = {
    "tree.build_s": ("tree.build", None),
    "lists.build_s": ("lists.build", None),
    "lists.cache_get_s": ("lists.cache_get", None),
    "farfield.geometry_s": ("farfield.geometry", None),
    "farfield.sweep_s": ("farfield.sweep", {"farfield.geometry"}),
    "nearfield.plan_s": ("nearfield.plan", None),
    "fmm.solve_self_s": ("fmm.solve", None),
    **{f"farfield.{op}_s": (f"farfield.{op}", None) for op in FARFIELD_OPS},
}
#: work counts the wrappers take where the work happens (harness.py)
COUNTERS = (
    "farfield.op_builds", "farfield.op_hits", "farfield.n_m2l_classes",
    "nearfield.groups", "nearfield.plan_builds", "nearfield.plan_refreshes",
    "nearfield.plan_hits",
)


@dataclass
class Report:
    """What one run of one workload measured."""

    #: metric -> reference-second samples (wall / host factor)
    ref: dict[str, list[float]] = field(default_factory=dict)
    #: metric -> the same samples as raw wall seconds
    wall: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    #: read when the timed part ends, before the checks allocate
    peak_rss_mb: float = 0.0

    def sample(self, metric: str, wall: float, ref: float) -> None:
        self.wall.setdefault(metric, []).append(wall)
        self.ref.setdefault(metric, []).append(ref)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


class Context:
    """Inputs plus live resources of one workload; ``close`` releases them."""

    def __init__(self, name: str, scale: dict, seed: int) -> None:
        self.name = name
        self.scale = scale
        self.seed = seed
        self.closers: list = []

    def close(self) -> None:
        while self.closers:
            self.closers.pop()()


def _masses(n: int, seed: int) -> np.ndarray:
    """Positive masses summing to 1, drawn from the run's seed."""
    m = np.random.default_rng(seed).uniform(0.5, 1.5, n)
    return m / m.sum()


def _op_timer(clock: Clock, rec: Recorder | None):
    """``run(kind, fn)``: one timed root operation (an ``op.<kind>`` span
    in the traced pass) -> ``(result, wall_s, ref_s)``."""

    def run(kind: str, fn):
        if rec is None:
            return clock.time(fn)

        def traced():
            with rec.span(f"op.{kind}"):
                return fn()

        return clock.time(traced)

    return run


def _check_accuracy(rep: Report, acc: dict, bounds) -> None:
    for key, bound in zip(("gradient_rel_err", "potential_rel_err"), bounds):
        rep.check(acc[key] <= bound, f"{key} {acc[key]:.3e} over bound {bound:.1e}")


def _median(values) -> float:
    vals = list(values)
    return float(statistics.median(vals)) if vals else 0.0


def _mean(values) -> float:
    vals = list(values)
    return float(statistics.fmean(vals)) if vals else 0.0


# ------------------------------------------------------------ one-shot solve


def setup_solve(ctx: Context, dataset: str) -> None:
    import repro.distributions as distributions
    from repro import GravityKernel
    from repro.runtime.engine import ExecutionEngine
    from repro.runtime.shards import ProcessEngine

    cfg = ctx.scale[dataset]
    ctx.cfg = cfg
    ps = getattr(distributions, cfg["dist"])(cfg["n"], seed=DATASET_SEED)
    ctx.points = ps.positions
    ctx.q = _masses(cfg["n"], ctx.seed)
    ctx.kernel = GravityKernel(G=1.0)
    #: parallel back ends solved beside the timed serial path: checked
    #: bitwise against it, and timed alternating with it in the traced pass
    #: (both spawn their workers lazily, on their first solve)
    ctx.side_engines = {}
    if dataset == "plummer":
        _require_two_cpus(ctx)
        ctx.side_engines = {
            "threads": ExecutionEngine(n_workers=2),
            "shards": ProcessEngine(2),
        }
        ctx.closers.extend(e.close for e in ctx.side_engines.values())


def _require_two_cpus(ctx: Context) -> None:
    # a parallel number taken on one CPU would be vacuous: fail instead
    from repro.obs.ledger import machine_spec

    cpus = machine_spec()["cpu_available"]
    if cpus < 2:
        raise RuntimeError(f"{ctx.name} needs 2 usable CPUs, found {cpus}")


def measure_solve(ctx: Context, seconds: float, rec: Recorder | None) -> Report:
    from repro import FMMSolver, Telemetry, accuracy_report, build_adaptive

    rep = Report()
    clock = Clock()
    op = _op_timer(clock, rec)
    cfg, pts, q, kernel = ctx.cfg, ctx.points, ctx.q, ctx.kernel
    telemetry = Telemetry(tracer=OpTracer(rec)) if rec is not None else None

    def cold():
        tree = build_adaptive(pts, S=cfg["S"])
        solver = FMMSolver(kernel, order=cfg["order"], telemetry=telemetry)
        return tree, solver, solver.solve(tree, q, gradient=True)

    tree = solver = res = None
    for k in range(ctx.scale["n_cold"]):
        tree = solver = res = None  # the previous tree must not stay resident
        if rec is not None:
            rec.round = k
        (tree, solver, res), wall, ref = op("cold", cold)
        rep.sample("cold_s", wall, ref)

    sides = {
        name: FMMSolver(
            kernel, order=cfg["order"], engine=engine,
            list_cache=solver.list_cache, telemetry=telemetry,
        )
        for name, engine in ctx.side_engines.items()
    }
    side_walls = {name: [] for name in sides}
    engine_results, shard_results = [], []
    t_end = time.perf_counter() + seconds
    while True:
        if rec is not None:
            rec.round = len(rep.ref.get("warm_s", ()))
        res, wall, ref = op("warm", lambda: solver.solve(tree, q, gradient=True))
        rep.sample("warm_s", wall, ref)
        if rec is not None:
            # alternating, so a speedup compares solves of one host phase
            for name, side in sides.items():
                _, wall, _ = op(name, lambda: side.solve(tree, q, gradient=True))
                side_walls[name].append(wall)
            if sides:
                engine_results.append(sides["threads"].last_engine_result)
                shard_results.append(sides["shards"].last_shard_result)
        if (
            time.perf_counter() >= t_end
            and len(rep.ref["warm_s"]) >= ctx.scale["min_warm"]
        ):
            break
    rep.peak_rss_mb = peak_rss_mb()  # before the untimed checks allocate

    for name, side in sides.items():
        other = side.solve(tree, q, gradient=True)
        rep.check(
            np.array_equal(other.potential, res.potential)
            and np.array_equal(other.gradient, res.gradient),
            f"{name} result differs from serial bitwise",
        )
        rep.check(side.degraded_runs == 0, f"a {name} solve degraded to serial")
    acc = accuracy_report(
        kernel, pts, q, res, sample=ctx.scale["accuracy_sample"], seed=123
    )
    _check_accuracy(rep, acc, cfg["err"])

    counts = res.op_counts
    stats = tree.stats()
    rep.info.update(
        n=cfg["n"], S=cfg["S"], order=cfg["order"],
        near_pairs=counts["P2P"], m2l_pairs=counts["M2L"],
        n_leaves=stats["n_leaves"], depth=stats["depth"],
        gradient_rel_err=acc["gradient_rel_err"],
        potential_rel_err=acc["potential_rel_err"],
    )
    if rec is not None:
        _solve_layers(
            ctx, rep, rec, tree, solver, res, acc,
            side_walls, engine_results, shard_results,
        )
    return rep


def _kernel_block_rate(kernel, block: int) -> float:
    """Pair interactions per second of ``evaluate`` + ``gradient`` on one
    fixed ``block x block`` tile: what the near field's arithmetic reaches
    in a single call."""
    rng = np.random.default_rng(7)
    t, s, q = rng.random((block, 3)), rng.random((block, 3)) + 2.0, rng.random(block)
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel.evaluate(t, s, q)
        kernel.gradient(t, s, q)
        times.append(time.perf_counter() - t0)
    return block * block / statistics.median(times)


def _solve_layers(
    ctx, rep, rec, tree, solver, res, acc, side_walls, engine_results, shard_results
) -> None:
    tab = SpanTable(rec.spans)
    L = rep.layer
    counts = res.op_counts
    stats = tree.stats()
    cache = solver.list_cache
    L["tree.build_s"] = _median(tab.per_op("op.cold", "tree.build"))
    L["tree.n_leaves"] = stats["n_leaves"]
    L["tree.depth"] = stats["depth"]
    L["lists.build_s"] = _median(tab.per_op("op.cold", "lists.build"))
    L["lists.cache_get_s"] = _median(tab.per_op("op.warm", "lists.cache_get"))
    L["lists.cache_hits"] = cache.hits
    L["lists.cache_repairs"] = cache.repairs
    L["lists.cache_rebuilds"] = cache.builds
    L["lists.n_m2l_pairs"] = counts["M2L"]
    L["lists.near_pairs"] = counts["P2P"]
    L["farfield.geometry_s"] = _median(tab.per_op("op.cold", "farfield.geometry"))
    L["nearfield.plan_s"] = _median(tab.per_op("op.cold", "nearfield.plan"))
    L["nearfield.pairs"] = counts["P2P"]
    for key in COUNTERS:
        L[key] = rec.counters.get(key, 0)
    L["fmm.grad_rel_err"] = acc["gradient_rel_err"]
    L["fmm.pot_rel_err"] = acc["potential_rel_err"]
    L["kernels.block_pairs_per_s"] = _kernel_block_rate(
        ctx.kernel, ctx.scale["kernel_block"]
    )

    L["farfield.sweep_s"] = _median(
        tab.per_op("op.warm", "farfield.sweep", exclude={"farfield.geometry"})
    )
    for name in FARFIELD_OPS:
        L[f"farfield.{name}_s"] = _median(tab.per_op("op.warm", f"farfield.{name}"))
    L["farfield.m2l_apps_per_s"] = counts["M2L"] / L["farfield.m2l_s"]
    near = _median(tab.per_op("op.warm", "nearfield.eval", exclude={"nearfield.plan"}))
    L["nearfield.eval_s"] = near
    L["nearfield.pairs_per_s"] = counts["P2P"] / near
    L["kernels.call_overhead_frac"] = (
        1.0 - L["nearfield.pairs_per_s"] / L["kernels.block_pairs_per_s"]
    )
    L["fmm.solve_self_s"] = _median(tab.per_op("op.warm", "fmm.solve"))

    if side_walls:
        warm_wall = _median(rep.wall["warm_s"])
        L["engine.makespan_s"] = _median(r.makespan for r in engine_results)
        L["engine.utilization"] = _median(r.utilization for r in engine_results)
        L["engine.queue_wait_s"] = _median(r.total_queue_wait for r in engine_results)
        L["engine.n_tasks"] = engine_results[-1].n_tasks
        L["engine.warm_solve_s"] = _median(side_walls["threads"][1:])
        L["engine.speedup"] = warm_wall / L["engine.warm_solve_s"]
        # each engine's first solve spawns its workers (and, for shards,
        # installs the session): kept out of the warm medians
        L["shards.warm_solve_s"] = _median(side_walls["shards"][1:])
        L["shards.spawn_s"] = side_walls["shards"][0] - L["shards.warm_solve_s"]
        warm_shards = shard_results[1:]
        L["shards.imbalance"] = _median(r.imbalance for r in warm_shards)
        L["shards.barrier_s"] = _median(r.barrier_seconds for r in warm_shards)
        L["shards.halo_bytes"] = shard_results[-1].halo_bytes
        L["shards.halo_s"] = _median(r.halo_seconds for r in warm_shards)
        L["shards.speedup"] = warm_wall / L["shards.warm_solve_s"]
    _trace_summary(rep, rec, tab, ("op.cold", "op.warm", *(f"op.{n}" for n in side_walls)))


def _trace_summary(rep: Report, rec: Recorder, tab: SpanTable, root_names) -> None:
    """Layer shares of the traced time, how much of it no layer took, and
    what the wrappers themselves cost (spans recorded x the cost of one
    empty span measured now: steadier than the difference of two runs)."""
    layers = tab.layer_self_times(root_names)
    total = sum(
        s["end"] - s["start"]
        for s in tab.spans
        if s["parent"] is None and s["name"] in root_names
    )
    rep.layer["trace.unattributed_frac"] = layers.get("op", 0.0) / total if total else 0.0
    rep.layer["obs.trace_overhead_frac"] = (
        _span_cost(rec) * len(tab.spans) / total if total else 0.0
    )
    rep.info["layer_self_s"] = {k: round(v, 6) for k, v in sorted(layers.items())}
    rep.info["traced_total_s"] = round(total, 6)
    rep.info["nesting_violations"] = tab.check_nesting()
    rep.check(not rep.info["nesting_violations"], "trace spans do not nest")
    covered = sum(layers.values())
    rep.check(
        total > 0 and abs(covered - total) <= 0.05 * total,
        f"layer self times sum to {covered:.3f}s, traced time is {total:.3f}s",
    )


# ---------------------------------------------------------- time-stepped run


#: the 48 symmetries of the cube: axis permutation x per-axis reflection
CUBE_SYMMETRIES = [
    (list(perm), np.array(signs, dtype=float))
    for perm in itertools.permutations(range(3))
    for signs in itertools.product((1, -1), repeat=3)
]


def setup_sim(ctx: Context) -> None:
    from repro import compact_plummer
    from repro.geometry import Box, bounding_box

    cfg = ctx.scale["sim"]
    ctx.cfg = cfg
    ps = compact_plummer(cfg["n"], velocity_scale=1.5, seed=DATASET_SEED)
    box = bounding_box(ps.positions)
    center = np.asarray(box.center, dtype=float)
    perm, signs = CUBE_SYMMETRIES[ctx.seed % len(CUBE_SYMMETRIES)]
    ps.positions[...] = center + (ps.positions - center)[:, perm] * signs
    ps.velocities[...] = ps.velocities[:, perm] * signs
    ctx.particles = ps
    ctx.domain = Box(center, box.size * 4.0)  # the driver's default, pinned


def _new_simulation(ctx: Context):
    from repro import BalancerConfig, GravityKernel, Simulation, SimulationConfig, system_a

    config = SimulationConfig(
        strategy="full",
        forces="fmm",
        order=ctx.cfg["order"],
        dt=1e-4,
        balancer=BalancerConfig(gap_threshold_frac=0.15),
        n_workers=1,
    )
    machine = system_a().with_resources(n_cores=10, n_gpus=4)
    return Simulation(
        ctx.particles.copy(), GravityKernel(G=1.0), machine,
        config=config, domain=ctx.domain,
    )


def _run_simulation(ctx, op, sim) -> list[tuple[float, float, int, str]]:
    """Step ``sim`` through the workload; one ``(wall, ref, S, state)`` per step."""
    steps = []
    for _ in range(ctx.cfg["steps"]):
        record, wall, ref = op("step", sim.step)
        steps.append((wall, ref, record.S, record.state))
    return steps


def measure_sim(ctx: Context, seconds: float, rec: Recorder | None) -> Report:
    from repro import Telemetry, accuracy_report

    rep = Report()
    clock = Clock()
    op = _op_timer(clock, rec)
    runs = []
    sim = None
    t_start = time.perf_counter()
    while True:
        if sim is not None:
            sim.close()
        sim = _new_simulation(ctx)
        ctx.closers.append(sim.close)
        if rec is not None:
            sim.solver.telemetry = Telemetry(tracer=OpTracer(rec))
            rec.round = len(runs)
        t0 = time.perf_counter()
        runs.append(_run_simulation(ctx, op, sim))
        took = time.perf_counter() - t0
        # a repetition is the unit: another one only if it fits the budget
        if rec is not None or time.perf_counter() - t_start + took > seconds:
            break

    rep.peak_rss_mb = peak_rss_mb()
    sequence = [(S, state) for _, _, S, state in runs[0]]
    for other in runs[1:]:
        rep.check(
            [(S, state) for _, _, S, state in other] == sequence,
            "balancer (S, state) sequence differs between repetitions",
        )
    states = [state for _, state in sequence]
    rep.check("observation" in states, "balancer never reached observation")
    first_obs = states.index("observation") if "observation" in states else len(states)
    # per step, the median across repetitions.  cold = the S search (every
    # step before the balancer first reports observation); warm = the mean
    # of the steps after it — a mean, because they are of two kinds (refit
    # only ~0.1 s, S adjustment with operator rebuild ~0.5 s) in a ratio
    # the seeded trajectory fixes, and a median would sit between them
    for store, col in ((rep.wall, 0), (rep.ref, 1)):
        per_step = [
            statistics.median(run[i][col] for run in runs) for i in range(len(states))
        ]
        store["cold_s"] = [sum(per_step[:first_obs])]
        store["warm_s"] = [_mean(per_step[first_obs:] or per_step)]
        rep.info["step_wall_s" if col == 0 else "step_ref_s"] = per_step
    pos = sim.particles.positions
    rep.check(
        bool(np.isfinite(pos).all() and sim.domain.contains(pos).all()),
        "bodies left the domain or went non-finite",
    )
    rep.check(sim.solver.degraded_runs == 0, "a solve degraded")
    res = sim.solver.solve(sim.tree, sim.particles.strengths, gradient=True)
    acc = accuracy_report(
        sim.kernel, pos, sim.particles.strengths, res,
        sample=ctx.scale["accuracy_sample"], seed=123,
    )
    _check_accuracy(rep, acc, ctx.cfg["err"])
    rep.info.update(
        n=ctx.cfg["n"], steps=ctx.cfg["steps"], repetitions=len(runs),
        S_sequence=[S for S, _ in sequence], states=states,
        search_steps=first_obs, final_S=sequence[-1][0],
        gradient_rel_err=acc["gradient_rel_err"],
    )
    if rec is not None:
        _sim_layers(ctx, rep, rec, sim, res, acc)
    return rep


def _sim_layers(ctx, rep, rec, sim, res, acc) -> None:
    tab = SpanTable(rec.spans)
    L = rep.layer
    steps = "op.step"
    per_step = {
        **COMMON_SPANS,
        "tree.refit_s": ("tree.refit", None),
        "nearfield.eval_grad_s": ("nearfield.eval", {"nearfield.plan"}),
        "balance.end_of_step_s": ("balance.end_of_step", None),
        "machine.time_step_s": ("machine.time_step", None),
        "sim.ensure_tree_s": ("sim.ensure_tree", ()),
    }
    # a step's layers vary with the balancer state, so the mean per step
    # (share of the whole run) is the figure, not a median
    for metric, (span, exclude) in per_step.items():
        L[metric] = _mean(tab.per_op(steps, span, exclude))
    L["sim.step_self_s"] = _mean([r["self"] for r in tab.roots(steps)])
    L["sim.step_s"] = _mean(rep.info["step_wall_s"])
    stats = sim.tree.stats()
    counts = res.op_counts
    L["tree.n_leaves"] = stats["n_leaves"]
    L["tree.depth"] = stats["depth"]
    L["lists.cache_hits"] = sim.list_cache.hits
    L["lists.cache_repairs"] = sim.list_cache.repairs
    L["lists.cache_rebuilds"] = sim.list_cache.builds
    L["lists.n_m2l_pairs"] = counts["M2L"]
    L["lists.near_pairs"] = counts["P2P"]
    L["nearfield.pairs"] = counts["P2P"]
    for key in COUNTERS:
        L[key] = rec.counters.get(key, 0)
    m2l_total = sum(tab.per_op(steps, "farfield.m2l"))
    if m2l_total > 0:
        L["farfield.m2l_apps_per_s"] = rec.counters.get("farfield.m2l_apps", 0) / m2l_total
    decisions = list(sim.balancer.decisions)
    L["balance.search_steps"] = rep.info["search_steps"]
    L["balance.rebuilds"] = sum(1 for d in decisions if d["rebuild_S"] is not None)
    L["balance.fgo_ops"] = sum(
        d["fgo"]["collapses"] + d["fgo"]["pushdowns"] for d in decisions if "fgo" in d
    )
    L["balance.final_S"] = sim.balancer.S
    L["balance.lb_frac_model"] = sim.summary()["lb_pct_of_compute"] / 100.0
    L["fmm.grad_rel_err"] = acc["gradient_rel_err"]
    L["fmm.pot_rel_err"] = acc["potential_rel_err"]
    _trace_summary(rep, rec, tab, (steps,))


def _span_cost(rec: Recorder) -> float:
    """Seconds one empty wrapper span costs, measured here and now."""
    kept, rec.spans = rec.spans, []
    try:
        noop = rec.wrap("obs.noop", lambda: None)
        t0 = time.perf_counter()
        for _ in range(2000):
            noop()
        return (time.perf_counter() - t0) / 2000
    finally:
        rec.spans = kept


# -------------------------------------------------------------- served mix


def _new_server(ctx: Context, ledger: str | None):
    from repro.serve import BackgroundServer, ServeConfig

    bg = BackgroundServer(
        ServeConfig(pool_size=2, shed_budget_s=3600.0, ledger_path=ledger), tcp=True
    )
    bg.__enter__()
    clients = [bg.client(), bg.client()]

    def close():
        for c in clients:
            c.close()
        bg.__exit__(None, None, None)

    return bg, clients, close


def setup_serve(ctx: Context) -> None:
    _require_two_cpus(ctx)
    ctx.cfg = ctx.scale["serve"]
    ctx.ledger = None
    ctx.bg, ctx.clients, close = _new_server(ctx, None)
    ctx.closers.append(close)


def _spec(ctx: Context, client: int, i: int) -> dict:
    """Request ``i`` of ``client``: every 5th is a Stokeslet solve, every
    one a body sample no other request of this run uses."""
    return {
        "kernel": "stokeslet" if i % 5 == 4 else "laplace",
        "n": ctx.cfg["n"],
        "order": ctx.cfg["order"],
        "seed": (ctx.seed + 1) * 1_000_000 + client * 100_000 + i,
    }


def measure_serve(ctx: Context, seconds: float, rec: Recorder | None) -> Report:
    from repro.serve import ServeError, solve_direct

    rep = Report()
    clock = Clock()
    op = _op_timer(clock, rec)
    pending: dict[int, int] = {}  # request seed -> client span that caused it
    if rec is not None:
        _trace_served_solves(rec, pending)
        ctx.ledger = str(harness.OUT / f"serve_ledger.{ctx.seed}.jsonl")
        open(ctx.ledger, "w").close()

    def request(client, spec, tenant):
        """One solve; ``None`` (and a failure) unless the server answers 200."""
        try:
            if rec is None:
                return client.solve(spec, tenant=tenant)
            with rec.span("serve.request") as sid:
                pending[spec["seed"]] = sid
                return client.solve(spec, tenant=tenant)
        except (ServeError, OSError) as exc:
            rep.failures.append(f"request {spec['seed']} failed: {exc}")
            return None
        finally:
            rep.attempted += 1

    # cold: the first request a fresh server sees (empty operator cache).
    # Its cost is the operator assembly for that request's tree, so the
    # cold requests are the same few bodies samples in every run
    for k in range(ctx.cfg["n_cold"]):
        ctx.close()
        ctx.bg, ctx.clients, close = _new_server(ctx, ctx.ledger)
        ctx.closers.append(close)
        if rec is not None:
            ctx.bg.server.telemetry.tracer = OpTracer(rec)
        spec = dict(_spec(ctx, 0, 0), seed=DATASET_SEED + k)
        _, wall, ref = op("cold", lambda: request(ctx.clients[0], spec, "tenant-0"))
        rep.sample("cold_s", wall, ref)

    # warm: closed loop, one connection and tenant per client, the next
    # request only after the reply.  Bursts let the host factor be read
    # between them with every client idle.
    burst = ctx.cfg["burst"]
    served: list[tuple[dict, dict, float, float]] = []  # spec, result, wall, ref
    burst_walls: list[tuple[float, float, int]] = []
    sent = [0, 0]

    def client_loop(c: int, out: list) -> None:
        for _ in range(burst):
            spec = _spec(ctx, c, sent[c])
            sent[c] += 1
            t0 = time.perf_counter()
            result = request(ctx.clients[c], spec, f"tenant-{c}")
            out.append((spec, result, time.perf_counter() - t0))

    t_end = time.perf_counter() + seconds
    while True:
        if rec is not None:
            rec.round += 1
        outs: list[list] = [[], []]
        threads = [
            threading.Thread(target=client_loop, args=(c, outs[c]))
            for c in (0, 1)
        ]

        def run_burst():
            for t in threads:
                t.start()
            for t in threads:
                t.join()

        _, wall, ref = clock.time(run_burst)
        factor = wall / ref
        n_ok = 0
        for out in outs:
            for spec, result, lat in out:
                if result is not None:
                    served.append((spec, result, lat, lat / factor))
                    n_ok += 1
        burst_walls.append((wall, ref, n_ok))
        if time.perf_counter() >= t_end and len(burst_walls) >= ctx.scale["min_warm"]:
            break

    rep.peak_rss_mb = peak_rss_mb()
    laplace = [(w, r) for s, _, w, r in served if s["kernel"] == "laplace"]
    stokes = [(w, r) for s, _, w, r in served if s["kernel"] == "stokeslet"]
    rep.wall["warm_s"] = [w for w, _ in laplace]
    rep.ref["warm_s"] = [r for _, r in laplace]
    rep.check(bool(laplace), "no laplace request was served")

    status = ctx.clients[0].status()
    rep.check(status["failed_total"] == 0, f"server failed {status['failed_total']}")
    rep.check(status["shed_total"] == 0, f"server shed {status['shed_total']}")

    # served == direct, bitwise, on a sample (a direct solve assembles its
    # operators cold, ~1.5 s each, so the sample is small and fixed)
    picks, seen = [], set()
    for spec, result, _, _ in served:
        if spec["kernel"] not in seen:
            seen.add(spec["kernel"])
            picks.append((spec, result))
    for spec, result in picks[: ctx.cfg["verify"]]:
        direct = solve_direct(spec)
        keys = ("velocity",) if spec["kernel"] == "stokeslet" else ("potential", "gradient")
        rep.check(
            all(np.array_equal(result[k], direct[k]) for k in keys),
            f"served {spec['kernel']} seed {spec['seed']} differs from solve_direct",
        )

    total_wall = sum(w for w, _, _ in burst_walls)
    rep.info.update(
        n=ctx.cfg["n"], order=ctx.cfg["order"], clients=2, pool_size=2,
        requests=len(served), laplace=len(laplace), stokeslet=len(stokes),
        bursts=len(burst_walls), rps_wall=len(served) / total_wall,
    )
    if rec is not None:
        _serve_layers(ctx, rep, rec, served, laplace, stokes, burst_walls, status)
    return rep


def _trace_served_solves(rec: Recorder, pending: dict[int, int]) -> None:
    """Span around the server-side solve, parented to the client request
    that caused it (matched by the request's unique seed)."""
    import repro.serve.server as server

    inner = server._solve_core

    def traced(spec, **kwargs):
        # popped: the direct solves of the bitwise check reuse seeds
        with rec.span("serve.solve", parent=pending.pop(spec.seed, None)):
            return inner(spec, **kwargs)

    server._solve_core = traced


def _serve_layers(ctx, rep, rec, served, laplace, stokes, burst_walls, status) -> None:
    from repro.serve.protocol import read_message, write_message

    tab = SpanTable(rec.spans)
    L = rep.layer
    req = "serve.request"
    per_request = {
        **COMMON_SPANS,
        "nearfield.eval_s": ("nearfield.eval", {"nearfield.plan"}),
    }
    for metric, (span, exclude) in per_request.items():
        L[metric] = _median(tab.per_op(req, span, exclude))
    for key in COUNTERS:
        L[key] = rec.counters.get(key, 0)
    L["lists.cache_rebuilds"] = tab.count(req, "lists.build")

    with open(ctx.ledger) as fh:
        records = [json.loads(line)["metrics"] for line in fh if line.strip()]
    rep.check(
        len(records) >= len(served),
        f"ledger has {len(records)} records for {len(served)} served requests",
    )
    L["serve.queue_wait_s"] = _median(r["queue_wait_s"] for r in records)
    L["serve.solve_wall_s"] = _median(r["wall_s"] for r in records)
    L["serve.predicted_over_wall"] = _median(
        r["predicted_s"] / r["wall_s"] for r in records if r["wall_s"] > 0
    )
    # what a request costs outside the solve: framing, codec, queue, loop
    L["serve.overhead_s"] = _median(r["self"] for r in tab.roots(req))
    response = {"id": 1, "ok": True, "result": served[0][1]}
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        read_message(write_message(response))
        times.append(time.perf_counter() - t0)
    L["serve.codec_s"] = _median(times)
    opc = status["opcache"]
    L["serve.opcache_hit_ratio"] = opc["hits"] / max(1, opc["hits"] + opc["misses"])
    # the highest percentile that still has ten samples beyond it
    L["serve.tail_percentile"], L["serve.tail_s"] = percentile_with_tail(
        [w for w, _ in laplace]
    )
    L["serve.stokeslet_p50_s"] = _median(w for w, _ in stokes)
    L["serve.shed_total"] = status["shed_total"]
    L["serve.failed_total"] = status["failed_total"]
    L["serve.rps"] = _median(n / w for w, _, n in burst_walls)
    _trace_summary(rep, rec, tab, (req,))


# ---------------------------------------------------------------- registry

WORKLOADS = {
    "plummer_near": (lambda c: setup_solve(c, "plummer"), measure_solve),
    "uniform_far": (lambda c: setup_solve(c, "uniform"), measure_solve),
    "collapse_sim": (setup_sim, measure_sim),
    "serve_mix": (setup_serve, measure_serve),
}
