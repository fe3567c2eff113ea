"""Shared machinery of the step_budget benchmark.

Noise control (thread pins, GC fencing, host-speed calibration), sample
statistics, and the span recorder the traced pass uses.  Nothing here
imports ``repro`` at module level except :func:`install_wrappers`, so a
checkout without the program fails at the first workload import.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# BLAS/OpenMP pools are sized when NumPy loads, so the pins come first: the
# parallel workloads attribute speedup to the program's own threads/shards,
# and a BLAS pool underneath would both confound that and oversubscribe
# the two cores.
for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import functools
import gc
import itertools
import json
import statistics
import threading
import time
from contextlib import contextmanager

import numpy as np

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
#: where results, traces, ledgers and temporary files go (``--out``)
OUT = HERE / "out"


def prepare_environment(out: Path | None = None) -> None:
    """Make ``repro`` importable here and in spawned shard workers, and
    point every file the program may write (ledger, shard plan pickles)
    into the output directory so a run leaves the checkout clean."""
    global OUT
    if out is not None:
        OUT = Path(out).resolve()
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    inherited = os.environ.get("PYTHONPATH")
    if str(SRC) not in (inherited or "").split(os.pathsep):
        os.environ["PYTHONPATH"] = (
            f"{SRC}{os.pathsep}{inherited}" if inherited else str(SRC)
        )
    os.environ["REPRO_LEDGER"] = str(OUT / "ledger.jsonl")
    os.environ["TMPDIR"] = str(OUT / "tmp")


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The shard engine's semaphores and shared memory start that helper
    process; left alone it ends only after this interpreter has, so a run
    would leave a process behind.  The finalizers run first: a semaphore
    unregistering later would start a new tracker.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is None:
        return
    gc.collect()
    sys.modules["multiprocessing.util"]._run_finalizers(0)
    tracker._resource_tracker._stop()


# ------------------------------------------------------------- calibration
#
# This host's speed changes by a factor of up to 1.8 — within a second and in
# phases that last minutes (a warm solve: 0.95 s to 1.77 s over seven
# minutes with nothing else running) — which is more than the regressions
# the benchmark has to resolve.  Every timed sample is therefore bracketed
# by a fixed burst of work and reported in *reference seconds*: wall seconds
# divided by (burst time now / burst time on the reference host).  The raw
# wall medians are printed beside them.
#
# The burst is the benchmark's own NumPy and Python, never the program's
# code: a change to the program must not move the yardstick.  It mixes what
# the program's time goes to — pairwise blocks the size of a near-field
# group, one larger block whose temporaries leave the cache, and interpreter
# work — because the neighbours' load slows those unequally: against an
# in-cache loop alone (the first calibration) a warm solve reacted 1.2x as
# strongly, so slow phases were under-corrected by 10-20%.  Over twenty
# minutes of alternating solves, per-sample spread (quartile distance /
# median) of warm and cold solves was 15% raw, 13.5% with the in-cache
# loop, 7.5% with this burst; spread of one-minute medians 9.3%, 9.5%, 3.5%.

_rng = np.random.default_rng(0)
_CAL_GROUP = (_rng.random((32, 3)), _rng.random((864, 3)) + 0.5, _rng.random(864))
_CAL_BLOCK = (_rng.random((256, 3)), _rng.random((256, 3)) + 2.0, _rng.random(256))
#: seconds one calibration burst takes at the builder machine's median speed
CAL_REF_S = 0.0215


def _cal_pairs(targets, sources, strengths):
    d = targets[:, None, :] - sources[None, :, :]
    inv = 1.0 / np.sqrt(np.einsum("ijk,ijk->ij", d, d))
    return inv @ strengths, np.einsum("ij,ijk->ik", inv * inv * inv * strengths, d)


def _cal_burst() -> float:
    t0 = time.perf_counter()
    for _ in range(12):
        _cal_pairs(*_CAL_GROUP)
    for _ in range(3):
        _cal_pairs(*_CAL_BLOCK)
    table = {}
    for i in range(40000):
        table[i & 1023] = (i, i * 2)
    return time.perf_counter() - t0


def host_factor() -> float:
    """How slow the host runs right now relative to the reference (>1 =
    slower): median of three bursts, so a preempted burst is ignored."""
    return statistics.median(_cal_burst() for _ in range(3)) / CAL_REF_S


class Clock:
    """Times operations between two host-speed readings.

    Back-to-back samples share the reading between them, so calibration
    costs one reading (~60 ms) per sample.
    """

    _FRESH_S = 0.05

    def __init__(self) -> None:
        self._last: tuple[float, float] | None = None  # (when, factor)

    def _factor_before(self) -> float:
        if self._last and time.perf_counter() - self._last[0] < self._FRESH_S:
            return self._last[1]
        return host_factor()

    def time(self, fn, then=None):
        """Run ``fn()`` once with the GC fenced off.

        Returns ``(result, wall_s, ref_s)``; the result is produced inside
        the timed region, so lazy work cannot escape it.  ``then(result)``
        runs untimed before the closing host-speed reading: work the
        operation leaves running (a child's tear-down) would otherwise
        share the cores with the reading and pass for a slow host.
        """
        gc.collect()
        gc.disable()
        try:
            f0 = self._factor_before()
            t0 = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - t0
            if then is not None:
                then(out)
            f1 = host_factor()
        finally:
            gc.enable()
        self._last = (time.perf_counter(), f1)
        return out, wall, wall / (0.5 * (f0 + f1))


# --------------------------------------------------------------- statistics


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` defines them."""
    vals = [float(v) for v in values]
    if not vals:
        raise ValueError("no samples")
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return q1, statistics.median(vals), q3


def percentile_with_tail(values, tail: int = 10) -> tuple[float, float]:
    """The highest percentile that still has ``tail`` samples beyond it.

    Returns ``(percent, value)``; falls back to the median when there are
    fewer than ``2 * tail`` samples.
    """
    vals = sorted(values)
    n = len(vals)
    if n < 2 * tail:
        return 50.0, statistics.median(vals)
    idx = n - tail - 1
    return 100.0 * (idx + 1) / n, vals[idx]


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter plus its live children.

    ``VmHWM`` is read from ``/proc`` so shard workers count while they are
    still running; pages of the shared arena are counted once per process
    that touched them.
    """
    import multiprocessing

    def hwm_kb(pid) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    pids = ["self"] + [p.pid for p in multiprocessing.active_children()]
    return sum(hwm_kb(pid) for pid in pids) / 1024.0


# ------------------------------------------------------------------ tracing


class Recorder:
    """In-memory span store for the traced pass.

    A span is ``(id, name, start, end, parent, workload, round)``; the
    parent is the span open on the same thread when it started, unless the
    caller names the span that caused it (a served solve names the client
    request).  Spans are written out once, when the workload ends.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.round = 0
        self.spans: list[dict] = []
        #: work counts taken at the same boundaries as the spans
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()

    def add(self, counter: str, amount: float) -> None:
        with self._lock:  # served solves count from two pool threads
            self.counters[counter] = self.counters.get(counter, 0) + amount

    def _stack(self) -> list[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        rnd = self.round
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield sid
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                {
                    "id": sid,
                    "name": name,
                    "start": t0,
                    "end": t1,
                    "parent": parent,
                    "workload": self.workload,
                    "round": rnd,
                }
            )

    def wrap(self, name: str, fn):
        """``fn`` with a span around every call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(sorted(self.spans, key=lambda s: s["id"]), fh)


class OpTracer:
    """The ``tracer=`` argument of the far-field sweep, backed by a
    :class:`Recorder`: each per-operation span the program opens (P2M,
    M2M, M2L, L2L, L2P, ...) becomes a ``farfield.<op>`` span.  Spans the
    recorder's own wrappers already cover are dropped."""

    _OPS = {"P2M", "M2M", "M2L", "P2L", "L2L", "L2P", "M2P"}

    def __init__(self, recorder: Recorder) -> None:
        self._rec = recorder
        self.enabled = True

    def span(self, name: str, applications: int = 0, **_args):
        if name in self._OPS:
            key = f"farfield.{name.lower()}"
            self._rec.add(f"{key}_apps", applications)
            return self._rec.span(key)
        return _NULL_SPAN

    def instant(self, *_a, **_k) -> None:
        pass

    counter = instant


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None

    def set(self, **_args) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _covered(lo: float, hi: float, intervals) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    edge = lo
    for a, b in sorted(intervals):
        a, b = max(a, edge), min(b, hi)
        if b > a:
            total += b - a
            edge = b
    return total


class SpanTable:
    """Self times and per-operation sums over a finished span list.

    A span's *self time* is its duration minus the part of its interval
    that its child spans cover (children on other threads may overlap each
    other, so the union is taken).  Every span belongs to the root span it
    descends from — one timed operation of the benchmark.
    """

    def __init__(self, spans: list[dict]) -> None:
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children: dict[int, list[dict]] = {}
        for s in spans:
            if s["parent"] is not None:
                self.children.setdefault(s["parent"], []).append(s)
        for s in spans:
            s["self"] = self.time(s)
        for s in spans:
            root = s
            while root["parent"] is not None and root["parent"] in self.by_id:
                root = self.by_id[root["parent"]]
            s["root"] = root["id"]

    def time(self, span: dict, exclude=None) -> float:
        """Duration of ``span`` minus what its children named in
        ``exclude`` cover (``None`` = every child, i.e. self time)."""
        kids = [
            (c["start"], c["end"])
            for c in self.children.get(span["id"], ())
            if exclude is None or c["name"] in exclude
        ]
        dur = span["end"] - span["start"]
        return dur - _covered(span["start"], span["end"], kids)

    def roots(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["parent"] is None and s["name"] == name]

    def per_op(self, root_name: str, span_name: str, exclude=None) -> list[float]:
        """For every root named ``root_name``: summed time of its
        descendants named ``span_name`` (0.0 where it has none)."""
        sums = {r["id"]: 0.0 for r in self.roots(root_name)}
        for s in self.spans:
            if s["name"] == span_name and s["root"] in sums:
                sums[s["root"]] += self.time(s, exclude)
        return list(sums.values())

    def count(self, root_name: str, span_name: str) -> int:
        ids = {r["id"] for r in self.roots(root_name)}
        return sum(1 for s in self.spans if s["name"] == span_name and s["root"] in ids)

    def layer_self_times(self, root_names) -> dict[str, float]:
        """Total self time per layer (the span-name prefix) under the
        roots named in ``root_names``."""
        out: dict[str, float] = {}
        for s in self.spans:
            if self.by_id[s["root"]]["name"] in root_names:
                layer = s["name"].split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + s["self"]
        return out

    def check_nesting(self) -> list[str]:
        """Violations of: every same-thread child lies inside its parent,
        every self time is non-negative."""
        eps = 1e-6
        bad = []
        for s in self.spans:
            if s["self"] < -eps:
                bad.append(f"{s['name']}#{s['id']}: self time {s['self']:.6f} < 0")
            p = self.by_id.get(s["parent"]) if s["parent"] is not None else None
            if p and (s["start"] < p["start"] - eps or s["end"] > p["end"] + eps):
                bad.append(f"{s['name']}#{s['id']} leaves parent {p['name']}#{p['id']}")
        return bad


def _counting(rec: Recorder, fn, stats_attr: str, keys: dict, gauge):
    """``fn(tree, lists, ...)`` that also folds the change of the program's
    own ``lists.<stats_attr>`` counters into ``rec.counters`` (the stats
    live on each lists object, and a run goes through many), and records
    ``gauge(result) -> (name, value)`` of the latest result."""

    @functools.wraps(fn)
    def counted(tree, lists, *args, **kwargs):
        before = dict(getattr(lists, stats_attr, None) or {})
        out = fn(tree, lists, *args, **kwargs)
        after = getattr(lists, stats_attr)
        for key, name in keys.items():
            rec.add(name, after.get(key, 0) - before.get(key, 0))
        name, value = gauge(out)
        rec.counters[name] = value
        return out

    return counted


def install_wrappers(rec: Recorder) -> None:
    """Put a span around every layer's public entry point.

    Each wrapper is installed in the namespace where the program looks
    the entry point up at call time, so the program itself is not edited.
    """
    import repro.balance.controller as controller
    import repro.fmm.evaluator as evaluator
    import repro.fmm.farfield as farfield
    import repro.fmm.nearfield as nearfield
    import repro.kernels.stokeslet_fmm as stokeslet_fmm
    import repro.machine.executor as executor
    import repro.runtime.engine as engine
    import repro.runtime.shards as shards
    import repro.sim.driver as driver
    import repro.tree.cache as cache
    import repro.tree.octree as octree

    w = rec.wrap
    octree.AdaptiveOctree.__init__ = w("tree.build", octree.AdaptiveOctree.__init__)
    octree.AdaptiveOctree.refit = w("tree.refit", octree.AdaptiveOctree.refit)
    # ListCache takes its builder as a default argument, so that default
    # is where a from-scratch list build is looked up
    cache.ListCache.__init__.__defaults__ = (
        w("lists.build", cache.build_interaction_lists),
    )
    cache.repair_interaction_lists = w("lists.repair", cache.repair_interaction_lists)
    cache.ListCache.get = w("lists.cache_get", cache.ListCache.get)
    farfield.far_field_geometry = w(
        "farfield.geometry",
        _counting(rec, farfield.far_field_geometry, "farfield_geometry_stats",
                  {"op_builds": "farfield.op_builds", "op_hits": "farfield.op_hits"},
                  lambda geom: ("farfield.n_m2l_classes", len(geom.m2l_classes))),
    )
    nearfield.build_near_field_plan = w(
        "nearfield.plan",
        _counting(rec, nearfield.build_near_field_plan, "nearfield_plan_stats",
                  {"builds": "nearfield.plan_builds",
                   "refreshes": "nearfield.plan_refreshes",
                   "hits": "nearfield.plan_hits"},
                  lambda plan: ("nearfield.groups", plan.n_groups)),
    )
    for mod in (evaluator, stokeslet_fmm):
        mod.laplace_far_field = w("farfield.sweep", mod.laplace_far_field)
        mod.evaluate_near_field = w("nearfield.eval", mod.evaluate_near_field)
    evaluator.FMMSolver.solve = w("fmm.solve", evaluator.FMMSolver.solve)
    stokeslet_fmm.StokesletFMMSolver.solve = w(
        "fmm.solve", stokeslet_fmm.StokesletFMMSolver.solve
    )
    engine.ExecutionEngine.run = w("engine.run", engine.ExecutionEngine.run)
    shards.ProcessEngine.solve_laplace = w(
        "shards.solve", shards.ProcessEngine.solve_laplace
    )
    controller.DynamicLoadBalancer.end_of_step = w(
        "balance.end_of_step", controller.DynamicLoadBalancer.end_of_step
    )
    executor.HeterogeneousExecutor.time_step = w(
        "machine.time_step", executor.HeterogeneousExecutor.time_step
    )
    driver.Simulation._ensure_tree = w("sim.ensure_tree", driver.Simulation._ensure_tree)
