"""Sharded multi-process FMM backend over shared-memory Morton-range shards.

This is the real-process sibling of :mod:`repro.runtime.engine`: the
octree is split into Morton-contiguous leaf ranges by the work-weighted
partitioner (:func:`repro.cluster.partition.partition_by_morton_work`),
each shard runs in its own **spawned** worker process, and every large
array — bodies, strengths, multipole/local coefficients (``M`` / ``L``,
every row carrying the pass's ``k`` charge channels side by side),
outputs — lives in one :class:`multiprocessing.shared_memory.SharedMemory`
arena that all workers map.  Reading another shard's coefficient rows
through the arena is the one-sided-get transport; the explicitly timed
gather of remote boundary P2P bodies is the halo exchange.

Bitwise determinism
-------------------
Results are **bitwise identical** to the serial solver at any shard
count.  The serial far field is a sequence of class operations; float
matmuls are only reproducible when the *whole* operand matrix is
identical (BLAS picks kernels by shape, so ``(A @ B)[sel]`` differs from
``A[sel] @ B`` in the last ulp), hence the schedule never row-subsets a
matmul:

* a tree level's M2M or L2L — one matmul over its octets — runs whole on
  one shard, between barriers (levels spread over the shards by rows);
* M2L — :func:`repro.fmm.farfield.m2l`, the stage every back end runs:
  its octet arrays, its class gemms and merges in class order — runs
  whole on shard 0 from ``M`` into ``L``, between two barriers (BLAS runs
  each class gemm on every core already);
* per-body stages (P2M/L2P/P2P) use only row-independent primitives
  (``einsum``, segment sums, elementwise) on per-shard leaf/body
  subsets, which are bit-exact under subsetting;
* the order-sensitive scatter stage (the near-field self correction)
  runs whole on one shard.

Supersteps are separated by a :class:`multiprocessing.Barrier`.

Supervision and recovery
------------------------
The parent runs a shard supervisor around every solve.  Workers send
small heartbeat messages over their control pipes — one before each
barrier wait and one at each named stage (``p2m``, ``m2m``, ``m2l``,
``l2l``, ``l2p``, ``near``, ``near-self``) — each
carrying a monotonic tick and the highest fully completed *phase* (the
far-field pass is phase 0, the near field 1).  The supervisor multiplexes
all pipes with a read deadline (``heartbeat_s``), so worker death (pipe
EOF), a worker exception, or a wedged worker (no message within the
deadline; the stage ticks identify the laggard) all surface in bounded
wall-clock.

On failure the supervisor walks a recovery ladder:

1. **partial redo** — abort the barrier so survivors unblock and report
   the phase they completed; because every phase starts by zeroing its
   accumulation state across all shards, re-running from the first
   incomplete phase is bitwise-idempotent, so only the lost phases are
   re-executed;
2. **respawn** — dead/hung workers are killed, respawned, and re-fed the
   retained pickled plan over the same arena; the shared barrier is
   reset and the run re-dispatched from the restart phase (at most
   ``max_respawns`` recoveries per solve);
3. **serial fallback** — past ``max_respawns`` strikes the pool is torn
   down and :class:`ShardExecutionError` (with a ``reason``) propagates;
   callers degrade to the exact serial path, mirroring the thread
   engine's ladder.

The solve's :class:`~repro.util.timing.Deadline` rides the same loop: the
supervisor's wake-up notices expiry, aborts the barrier, drains the
workers' ``aborted`` outcomes, resets the barrier and raises
:class:`~repro.util.timing.SolveDeadlineError` — nobody is respawned and
the installed session serves the next solve.  Every barrier reset is
bounded by the heartbeat window: a worker killed while holding the
barrier's lock leaves it unobtainable, and then recovery takes the serial
fallback (an expired solve tears the pool down for the next one) instead
of blocking forever.

Chaos seams: ``install_fault_plan`` ships a
:class:`~repro.resilience.faults.FaultPlan` to every worker, whose
process-level kinds (seeded SIGKILL / heartbeat-stall / pipe-drop at the
named stages above) drive the recovery matrix in CI; recovered results
remain bitwise identical to serial because redone phases recompute
exactly the serial schedule.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

from repro.fmm import farfield, nearfield
from repro.fmm.farfield import FarFieldGeometry
from repro.kernels import _native
from repro.runtime.engine import default_workers
from repro.util.timing import SolveDeadlineError

__all__ = [
    "ProcessEngine",
    "ShardExecutionError",
    "ShardRunResult",
]

#: bytes of one boundary body's position in the measured halo
_BODY_POS_BYTES = 24


class ShardExecutionError(RuntimeError):
    """A shard run failed beyond recovery; the solve produced no result.

    ``reason`` is a short machine-readable cause — ``"worker died"``,
    ``"heartbeat timeout"``, ``"worker error"``, or ``"barrier aborted"``
    — while the message carries the full story (tracebacks, strike
    counts).  Callers degrade to the exact serial path.
    """

    def __init__(self, message: str, *, reason: str = "failure") -> None:
        super().__init__(message)
        self.reason = reason


class _ShardFailure(Exception):
    """Internal: one failed run attempt, with everything recovery needs."""

    def __init__(
        self,
        culprits: list[int],
        reason: str,
        restart_phase: int,
        detail: str = "",
    ) -> None:
        super().__init__(detail or reason)
        self.culprits = culprits
        self.reason = reason
        self.restart_phase = max(0, restart_phase)
        self.detail = detail


# --------------------------------------------------------------------------
# plan: everything a worker needs, pickled once per structure
# --------------------------------------------------------------------------


@dataclass
class GlobalPlan:
    """The full shard execution plan (structure-dependent, not per-solve)."""

    n_shards: int
    expansion: object
    kernel: object
    channels: int  # k: charge channels of the far-field pass
    far_potential: bool
    far_gradient: bool
    near_potential: bool
    near_gradient: bool
    arena_name: str
    layout: dict
    timeout_s: float
    geom: FarFieldGeometry  # level / class row arrays + dense operators, X/W rows
    shift_assignee: np.ndarray  # computing shard per shift level (M2M and L2L)
    near_pairs: int
    #: the parent's compiled P2P library file, or None for the NumPy body:
    #: workers adopt it, they neither choose nor compile one
    p2p_library: str | None
    # ownership / assignment
    leaf_shard: np.ndarray  # (n_leaves,) owner shard per leaf ordinal
    body_owner: np.ndarray  # (n_bodies,) owner shard per body
    near_assignee: np.ndarray  # (n_tiles,) computing shard per near tile
    row_ranges: np.ndarray  # (n_shards+1,) eff-row zero-fill boundaries
    body_ranges: np.ndarray  # (n_shards+1,) body zero-fill boundaries
    grad_axis_shard: np.ndarray  # (3,) shard per gradient axis


def _lpt_assign(weights, n_shards: int) -> np.ndarray:
    """Deterministic longest-processing-time assignment -> shard per item."""
    w = np.asarray(weights, dtype=float)
    out = np.zeros(w.size, dtype=np.int64)
    load = [0.0] * n_shards
    for i in np.argsort(-w, kind="stable"):
        s = min(range(n_shards), key=lambda r: (load[r], r))
        out[i] = s
        load[s] += float(w[i])
    return out


class _Arena:
    """One shared-memory block holding every named array, 64-byte aligned."""

    def __init__(self, entries) -> None:
        layout = {}
        off = 0
        for nm, shape, dtype in entries:
            dt = np.dtype(dtype)
            off = (off + 63) & ~63
            layout[nm] = (off, tuple(int(s) for s in shape), dt.str)
            off += int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        self._map(shared_memory.SharedMemory(create=True, size=max(1, off)), layout)

    @classmethod
    def attach(cls, name: str, layout: dict) -> "_Arena":
        self = cls.__new__(cls)
        self._map(_attach_shm(name), layout)
        return self

    def _map(self, shm, layout: dict) -> None:
        self.shm = shm
        self.layout = layout
        self.views = {
            nm: np.ndarray(shape, dtype=np.dtype(ds), buffer=shm.buf, offset=o)
            for nm, (o, shape, ds) in layout.items()
        }

    def close(self, unlink: bool = False) -> None:
        self.views = {}
        try:
            self.shm.close()
        except (OSError, BufferError):
            pass
        if unlink:
            try:
                self.shm.unlink()
            except (OSError, FileNotFoundError):
                pass


def _attach_shm(name: str):
    try:
        # track=False (3.13+) keeps the resource tracker from treating a
        # parent-owned segment as leaked when a worker exits
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # pre-3.13 attach re-registers with the (shared, spawn-inherited)
        # resource tracker; the cache is a set, so the duplicate collapses
        # and the parent's unlink clears the single entry — do NOT
        # unregister here, that would strip the parent's registration
        return shared_memory.SharedMemory(name=name)


#: array fields of the two body-level plans mirrored into the arena (as
#: ``"<prefix>.<field>"``): the parent fills them, workers wrap them back
#: into the same dataclasses the in-process passes use
_PLAN_FIELDS = {
    "body": ("body_idx", "ptr", "gid", "rel"),  # LeafBodyPlan
    "near": nearfield.PLAN_ARRAYS,  # NearFieldPlan
}


def _plan_views(prefix: str, views: dict) -> dict:
    return {f: views[f"{prefix}.{f}"] for f in _PLAN_FIELDS[prefix]}


def _build_plan(tree, lists, expansion, kernel, channels, *, far_potential, far_gradient,
                near_potential, near_gradient, near_shape, n_shards, timeout_s):
    """Build the :class:`GlobalPlan` + arena entry list for one structure.

    Returns ``(plan_sans_arena, arena_entries, extras)`` where ``extras``
    carries parent-only objects (partition, body/near plans).
    """
    from repro.cluster.partition import partition_by_morton_work

    geom = farfield.far_field_geometry(tree, lists, expansion)
    bplan = farfield.leaf_body_plan(tree, lists)
    nplan = nearfield.build_near_field_plan(tree, lists)
    part = partition_by_morton_work(
        tree, lists, n_shards, order=expansion.order, kernel=kernel
    )
    cdt = np.complex128 if expansion.backend == "spherical" else np.float64
    k = channels
    w = expansion.width

    eff = tree.effective_nodes()
    n_eff = len(eff)
    row_rank = np.fromiter(
        (part.node_rank(int(nid)) for nid in eff), dtype=np.int64, count=n_eff
    )
    leaf_shard = row_rank[geom.leaf_rows]
    n_leaves = int(geom.leaf_rows.size)
    n = tree.n_bodies
    body_owner = np.empty(n, dtype=np.int64)
    body_owner[bplan.body_idx] = np.repeat(leaf_shard, np.diff(bplan.ptr))

    entries = [
        ("points", (n, 3), np.float64),
        ("M", (n_eff, k * w), cdt),
        ("L", (n_eff, k * w), cdt),
        ("src", (n, k), np.float64),
    ]
    for prefix, src in (("body", bplan), ("near", nplan)):
        for f in _PLAN_FIELDS[prefix]:
            arr = getattr(src, f)
            entries.append((f"{prefix}.{f}", arr.shape, arr.dtype))
    if far_potential:
        entries.append(("fpot", (n, k), np.float64))
    if far_gradient:
        entries.append(("GK", (3, n_leaves, k * w), cdt))
        entries.append(("fgrad", (n, k, 3), np.float64))
    if near_potential:
        dim = kernel.value_dim
        entries.append(("near_pot", (n,) if dim == 1 else (n, dim), np.float64))
    if near_gradient:
        entries.append(("near_grad", (n, 3), np.float64))
    entries.append(("nearq", (n, *near_shape), np.float64))

    plan = GlobalPlan(
        n_shards=n_shards,
        expansion=expansion,
        kernel=kernel,
        channels=k,
        far_potential=far_potential,
        far_gradient=far_gradient,
        near_potential=near_potential,
        near_gradient=near_gradient,
        arena_name="",
        layout={},
        timeout_s=timeout_s,
        geom=geom,
        # a level's gemm runs whole on one shard: a BLAS row's bits may
        # depend on how many rows share the call
        shift_assignee=_lpt_assign([s.child_rows.size for s in geom.shift_levels], n_shards),
        near_pairs=nplan.total_pairs,
        p2p_library=getattr(_native.library(), "path", None),
        leaf_shard=leaf_shard,
        body_owner=body_owner,
        near_assignee=_lpt_assign(nplan.tile_weights, n_shards),
        row_ranges=np.array(
            [(n_eff * s) // n_shards for s in range(n_shards + 1)], dtype=np.int64
        ),
        body_ranges=np.array(
            [(n * s) // n_shards for s in range(n_shards + 1)], dtype=np.int64
        ),
        grad_axis_shard=np.arange(3, dtype=np.int64) % n_shards,
    )
    extras = {"part": part, "bplan": bplan, "nplan": nplan}
    return plan, entries, extras


# --------------------------------------------------------------------------
# worker
# --------------------------------------------------------------------------


class _WorkerState:
    """Per-shard execution state: arena views + precomputed assignments.

    The stage arithmetic is the in-process stage library
    (:mod:`repro.fmm.farfield` / :mod:`repro.fmm.nearfield`) called over
    arena views; this class only decides *which* leaves, levels and
    near-field tiles this shard runs, and when.
    """

    def __init__(self, plan: GlobalPlan, shard_id: int, barrier) -> None:
        self.plan = plan
        self.me = shard_id
        self.barrier = barrier
        self.arena = _Arena.attach(plan.arena_name, plan.layout)
        self.v = v = self.arena.views
        self.exp = plan.expansion
        self.geom = plan.geom
        self.body_plan = farfield.LeafBodyPlan(**_plan_views("body", v))

        # per-shard leaf/body subset (row-independent stages)
        self.my_leaves = np.nonzero(plan.leaf_shard == self.me)[0]
        self.refresh()

        # near tiles + boundary-body halo (sources owned by other shards),
        # read off the source leaf runs of my tiles
        self.my_tiles = np.nonzero(plan.near_assignee == self.me)[0]
        s_all = self.near_plan.tile_sources(self.my_tiles)
        self.near_remote = s_all[plan.body_owner[s_all] != self.me]

        self._beat = lambda label=None: None
        self.completed_phase = -1
        self._grad_mats = self.exp.l2p_gradient_matrices() if plan.far_gradient else ()

    def refresh(self) -> None:
        """Positions moved (same structure): re-slice my leaves out of the
        rewritten body plan, wrap (and so check) the rewritten near plan
        afresh and drop what was derived from either."""
        self.sub = self.body_plan.subset(self.my_leaves)
        self.near_plan = nearfield.NearFieldPlan(**_plan_views("near", self.v),
                                                 total_pairs=self.plan.near_pairs,
                                                 n_bodies=len(self.v["points"]))
        self._memo: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------- helpers
    def _derived(self, key: str):
        """The ``derived_cache`` protocol over this session's memo."""

        def store(value):
            self._memo[key] = value
            return value

        return self._memo.get(key), store

    def _basis(self) -> np.ndarray:
        return farfield.leaf_basis(self.exp, self.sub, self._derived)

    def _wait(self) -> None:
        self._beat()  # barrier-arrival heartbeat: the laggard stands out
        t0 = time.perf_counter()
        self.barrier.wait(self.plan.timeout_s)
        self.barrier_s += time.perf_counter() - t0

    # --------------------------------------------------------------- stages
    def _zero_coeffs(self) -> None:
        lo, hi = self.plan.row_ranges[self.me], self.plan.row_ranges[self.me + 1]
        for nm in ("M", "L"):
            self.v[nm][lo:hi] = 0.0

    def _p2m(self) -> None:
        farfield.p2m(
            self.geom, self.sub, self.exp, self.v["M"],
            charges=self.v["src"], basis=self._basis(),
        )

    def _gk(self) -> None:
        for k, A in enumerate(self._grad_mats):
            if self.plan.grad_axis_shard[k] == self.me:
                self.v["GK"][k] = farfield.l2p_leaf_gradient(self.geom, self.v["L"], A)

    def _l2p(self) -> None:
        v = self.v
        farfield.l2p(
            self.geom, self.sub, self._basis(), v["L"],
            v.get("fpot"), v.get("fgrad"), v.get("GK", ()),
        )

    # ----------------------------------------------------------- near field
    def _near_out(self) -> tuple:
        """``(pot, grad)`` near-field output views (``None`` = not wanted)."""
        return self.v.get("near_pot"), self.v.get("near_grad")

    def _near_zero(self) -> None:
        plan = self.plan
        lo, hi = plan.body_ranges[self.me], plan.body_ranges[self.me + 1]
        for out in self._near_out():
            if out is not None:
                out[lo:hi] = 0.0

    def _near_halo(self) -> None:
        if not self.near_remote.size:
            return
        t0 = time.perf_counter()
        pbuf = self.v["points"][self.near_remote]
        qbuf = self.v["nearq"][self.near_remote]
        self.halo_bytes += self.near_remote.size * _BODY_POS_BYTES + qbuf.nbytes
        del pbuf
        self.halo_s += time.perf_counter() - t0

    def _near_tiles(self) -> None:
        v = self.v
        nearfield.evaluate_near_tiles(self.plan.kernel, v["points"], v["nearq"], self.near_plan,
                                      self.my_tiles, *self._near_out())

    def _near_self(self) -> None:
        v = self.v
        nearfield.near_self_correction(
            self.plan.kernel, v["points"], v["nearq"],
            self.near_plan.self_idx, *self._near_out(),
        )

    # ------------------------------------------------------------------ run
    def _far(self) -> None:
        """Phase 0: the far-field pass, every channel at once."""
        plan, geom = self.plan, self.geom
        self._beat("p2m")
        self._zero_coeffs()
        self._wait()
        self._p2m()
        self._wait()
        levels = list(zip(plan.shift_assignee, geom.shift_levels))
        for who, shift in levels:
            self._beat("m2m")
            if who == self.me:
                farfield.m2m(shift, self.v["M"])
            self._wait()
        self._beat("m2l")
        if self.me == 0:
            farfield.m2l(self.exp, geom, self.v["M"], self.v["L"])
        self._wait()
        for who, shift in reversed(levels):
            self._beat("l2l")
            if who == self.me:
                farfield.l2l(shift, self.v["L"])
            self._wait()
        self._beat("l2p")
        if plan.far_gradient:
            self._gk()
            self._wait()
        self._l2p()
        self._wait()

    def run(self, refreshed: bool, from_phase: int = 0, beat=None) -> dict:
        """Execute phases ``from_phase..`` (0: the far field, 1: the near
        field).

        Every phase starts by zeroing the state it accumulates into, so
        restarting at any phase boundary is bitwise-idempotent — the
        supervisor exploits this to redo only lost phases after a
        failure.  ``beat(label=None)`` is the supervision callback: a
        bare call is a heartbeat (sent before every barrier wait), a
        labelled call marks a named stage (heartbeat + chaos hook).
        """
        if refreshed:
            self.refresh()
        plan = self.plan
        self.barrier_s = 0.0
        self.halo_bytes = 0
        self.halo_s = 0.0
        self.completed_phase = from_phase - 1
        self._beat = beat if beat is not None else (lambda label=None: None)
        self._beat()
        self.barrier.wait(plan.timeout_s)  # align the clock origin
        t_run = time.perf_counter()
        if from_phase == 0:
            self._far()
            self.completed_phase = 0
        if plan.near_potential or plan.near_gradient:
            self._beat("near")
            self._near_zero()
            self._wait()
            self._near_halo()
            self._near_tiles()
            self._wait()
            self._beat("near-self")
            if self.me == 0:
                self._near_self()
            self._wait()
        self.completed_phase = 1
        wall = time.perf_counter() - t_run
        return {
            "busy": wall - self.barrier_s,
            "barrier_s": self.barrier_s,
            "halo_bytes": int(self.halo_bytes),
            "halo_s": self.halo_s,
        }

    def close(self) -> None:
        self.arena.close(unlink=False)


def _worker_main(conn, barrier, shard_id: int) -> None:
    """Shard worker loop: install a plan, run solves, exit on close.

    Run messages are ``("run", refreshed, from_phase, attempt, fault_plan)``.
    During a run the worker heartbeats ``("hb", tick, completed_phase)``
    before every barrier wait and at every named stage (where the fault
    plan's chaos hook also fires); a broken barrier — a sibling failed or
    the supervisor aborted — ends the attempt with
    ``("aborted", completed_phase)`` and the worker returns to the
    command loop, ready for the retry dispatch.  ``("ping", token)`` is
    answered with ``("pong", token)``: the supervisor's positive sync
    that the worker is idle and its pipe drained before a barrier reset.
    """
    state: _WorkerState | None = None
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        cmd = msg[0]
        if cmd == "close":
            break
        try:
            if cmd == "install":
                if state is not None:
                    state.close()
                with open(msg[1], "rb") as fh:
                    plan = pickle.load(fh)
                _native.adopt(plan.p2p_library)
                state = _WorkerState(plan, shard_id, barrier)
                conn.send(("ok",))
            elif cmd == "ping":
                conn.send(("pong", msg[1]))
            elif cmd == "run":
                refreshed, from_phase, attempt, fplan = msg[1:5]
                tick = 0

                def beat(label=None):
                    nonlocal tick
                    tick += 1
                    conn.send(("hb", tick, state.completed_phase))
                    if label is not None and fplan is not None:
                        fplan.hook(label, attempt, shard=shard_id, pipe=conn)

                try:
                    stats = state.run(refreshed, from_phase=from_phase, beat=beat)
                except threading.BrokenBarrierError:
                    conn.send(("aborted", state.completed_phase))
                else:
                    conn.send(("stats", stats))
            else:
                conn.send(("error", f"unknown command {cmd!r}"))
        except BaseException:
            try:
                barrier.abort()
            except Exception:
                pass
            try:
                conn.send(("error", traceback.format_exc()))
            except Exception:
                break
    if state is not None:
        state.close()
    try:
        conn.close()
    except Exception:
        pass


# --------------------------------------------------------------------------
# parent-side engine
# --------------------------------------------------------------------------


@dataclass
class ShardRunResult:
    """Observed execution of one sharded solve: per-shard busy time,
    barrier wait, near-field halo traffic and the recoveries it took."""

    n_shards: int
    shard_busy: list = field(default_factory=list)
    barrier_seconds: float = 0.0  # summed across shards (idle at barriers)
    halo_bytes: int = 0  # near-field boundary bodies read from other shards
    halo_seconds: float = 0.0
    partition_imbalance: float = 1.0  # max/mean of partitioned work weights
    respawns: int = 0  # workers respawned while producing this result
    partial_redos: int = 0  # recoveries that skipped completed phases
    restart_phases: list = field(default_factory=list)  # phase per recovery

    @property
    def imbalance(self) -> float:
        """max/mean of observed shard busy time (1.0 = perfectly balanced)."""
        if not self.shard_busy:
            return 1.0
        mean = sum(self.shard_busy) / len(self.shard_busy)
        return max(self.shard_busy) / mean if mean > 0 else 1.0


class _Session:
    """One installed structure: arena + plan + parent-side extras.

    ``plan_path`` (the pickled plan on disk) is retained for the session
    lifetime so a respawned worker can be re-fed the identical plan.
    """

    def __init__(self, key, arena, plan, extras, generation, plan_path):
        self.key = key
        self.arena = arena
        self.plan = plan
        self.extras = extras
        self.generation = generation
        self.plan_path = plan_path
        self.needs_refresh = False

    def drop_plan_file(self) -> None:
        if self.plan_path is not None:
            try:
                os.unlink(self.plan_path)
            except OSError:
                pass
            self.plan_path = None


class ProcessEngine:
    """Multi-process shard executor, the solvers' third back end.

    :meth:`solve` (and its one-channel form :meth:`solve_laplace`) mirrors
    the serial far-field pass and near field exactly (see the module
    docstring for the determinism contract); :attr:`last_result` carries
    the observed per-shard timings and halo traffic of the most recent run.
    It is reached only through a solver's ``engine=`` argument.
    """

    def __init__(
        self,
        n_shards: int | None = None,
        *,
        timeout_s: float = 600.0,
        heartbeat_s: float | None = None,
        max_respawns: int = 2,
    ) -> None:
        n_shards = default_workers() if n_shards is None else int(n_shards)
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if int(max_respawns) < 0:
            raise ValueError("max_respawns must be >= 0")
        self.n_shards = n_shards
        self.timeout_s = float(timeout_s)
        #: supervision read deadline: a worker silent this long is hung.
        #: Defaults past the workers' own barrier timeout so a slow stage
        #: self-resolves through the barrier cascade before the parent
        #: declares anyone dead.
        self.heartbeat_s = (
            float(heartbeat_s) if heartbeat_s is not None
            else self.timeout_s + 30.0
        )
        if self.heartbeat_s <= 0:
            raise ValueError("heartbeat_s must be positive")
        #: recoveries allowed per solve before falling back to serial
        self.max_respawns = int(max_respawns)
        self._fault_plan = None
        self._ping_token = 0
        self._ctx = mp.get_context("spawn")
        self._procs: list = []
        self._conns: list = []
        self._barrier = None
        self._session: _Session | None = None
        self.last_result: ShardRunResult | None = None
        #: lifetime supervision counters
        self.total_respawns = 0
        self.total_partial_redos = 0
        self.total_serial_fallbacks = 0

    def install_fault_plan(self, plan) -> None:
        """Arm (or with ``None`` disarm) a process-level chaos plan.

        The plan travels pickled inside every run dispatch, so each
        worker (including respawned ones) evaluates it against the
        current run-attempt index — ``fire_attempts=1`` kills attempt 0
        and lets the recovery attempt through.
        """
        if plan is not None:
            try:
                pickle.dumps(plan)
            except Exception as exc:
                raise ValueError(
                    "fault plan must be picklable to reach shard workers "
                    f"({exc})"
                ) from exc
        self._fault_plan = plan

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ lifecycle
    def _ensure_pool(self) -> None:
        if self._procs:
            return
        self._barrier = self._ctx.Barrier(self.n_shards)
        for s in range(self.n_shards):
            parent, child = self._ctx.Pipe()
            p = self._ctx.Process(
                target=_worker_main,
                args=(child, self._barrier, s),
                name=f"repro-shard-{s}",
                daemon=True,
            )
            p.start()
            child.close()
            self._procs.append(p)
            self._conns.append(parent)

    def _teardown_pool(self) -> None:
        for conn in self._conns:
            try:
                conn.send(("close",))
            except (BrokenPipeError, OSError):
                pass
        for p in self._procs:
            p.join(timeout=5.0)
            if p.is_alive():
                p.terminate()
                p.join(timeout=5.0)
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._procs = []
        self._conns = []
        self._barrier = None

    def _drop_session(self) -> None:
        if self._session is not None:
            self._session.arena.close(unlink=True)
            self._session.drop_plan_file()
            self._session = None

    def close(self) -> None:
        """Tear down the pool and the arena.

        Idempotent, and *not* terminal: the next solve lazily respawns
        the pool (interface parity with the thread engine).
        """
        self._teardown_pool()
        self._drop_session()

    # -------------------------------------------------------------- install
    def _ensure_session(self, tree, lists, expansion, kernel, channels, **flags) -> _Session:
        key = (
            id(tree),
            id(lists),
            tree.structure_generation,
            expansion.backend,
            expansion.order,
            channels,
            *sorted(flags.items()),
            id(kernel),
        )
        sess = self._session
        if sess is not None and sess.key == key:
            if sess.generation == tree.generation:
                return sess
            if self._refresh_session(sess, tree, lists):
                return sess
        return self._install(tree, lists, expansion, kernel, channels, key, **flags)

    def _install(self, tree, lists, expansion, kernel, channels, key, **flags) -> _Session:
        self._drop_session()
        plan, entries, extras = _build_plan(
            tree, lists, expansion, kernel, channels,
            n_shards=self.n_shards, timeout_s=self.timeout_s, **flags,
        )
        arena = _Arena(entries)
        plan.arena_name = arena.shm.name
        plan.layout = arena.layout
        self._fill_structure(arena, tree, extras)
        self._ensure_pool()
        # the plan file outlives the install: respawned workers are re-fed
        # the same pickle (unlinked when the session is dropped)
        fd, path = tempfile.mkstemp(prefix="repro-shard-plan-", suffix=".pkl")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(plan, fh, protocol=pickle.HIGHEST_PROTOCOL)
            self._broadcast(("install", path), "install")
            self._collect("install")
        except ShardExecutionError:
            arena.close(unlink=True)
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        sess = _Session(key, arena, plan, extras, tree.generation, path)
        self._session = sess
        return sess

    def _fill_structure(self, arena, tree, extras) -> None:
        v = arena.views
        v["points"][:] = tree.points
        for prefix, src in (("body", extras["bplan"]), ("near", extras["nplan"])):
            for f, view in _plan_views(prefix, v).items():
                view[:] = getattr(src, f)

    def _refresh_session(self, sess, tree, lists) -> bool:
        """Same structure, new positions: rewrite body-plan arrays in place.

        Returns True when the in-place refresh sufficed; False when array
        shapes changed (near-field pair counts drifted) and the caller
        must fall through to a full re-install.
        """
        bplan = farfield.leaf_body_plan(tree, lists)
        nplan = nearfield.build_near_field_plan(tree, lists)
        views = _plan_views("near", sess.arena.views)
        if any(view.shape != getattr(nplan, f).shape for f, view in views.items()):
            return False
        sess.extras["bplan"], sess.extras["nplan"] = bplan, nplan
        self._fill_structure(sess.arena, tree, sess.extras)
        sess.generation = tree.generation
        sess.needs_refresh = True
        return True

    # ------------------------------------------------------------------ run
    def _broadcast(self, msg, what: str) -> None:
        """Send ``msg`` to every worker; a dead pipe fails the whole run
        (callers degrade to the serial path, never hang)."""
        for s, conn in enumerate(self._conns):
            try:
                conn.send(msg)
            except (BrokenPipeError, EOFError, OSError):
                self._fail(
                    f"shard {s} died before {what} could be dispatched",
                    reason="worker died",
                )

    def _collect(self, what: str) -> list:
        out = []
        deadline = time.monotonic() + self.timeout_s + 30.0
        for s, conn in enumerate(self._conns):
            remaining = max(0.1, deadline - time.monotonic())
            try:
                alive = conn.poll(remaining)
                msg = conn.recv() if alive else None
            except (EOFError, ConnectionResetError, OSError):
                self._fail(f"shard {s} died during {what}", reason="worker died")
            if msg is None:
                self._fail(
                    f"shard {s} timed out during {what}",
                    reason="heartbeat timeout",
                )
            if msg[0] == "error":
                self._fail(
                    f"shard {s} failed during {what}:\n{msg[1]}",
                    reason="worker error",
                )
            out.append(msg[1] if len(msg) > 1 else None)
        return out

    def _fail(self, message: str, *, reason: str = "failure") -> None:
        self._teardown_pool()
        self._drop_session()
        self.total_serial_fallbacks += 1
        raise ShardExecutionError(message, reason=reason)

    # ------------------------------------------------------- supervision
    def _abort_barrier(self) -> None:
        try:
            if self._barrier is not None:
                self._barrier.abort()
        except Exception:
            pass

    def _reset_barrier(self) -> bool:
        """Reset the shared barrier; ``False`` if that failed or did not
        finish within the heartbeat window.

        A worker killed while it held the barrier's lock never releases
        it, and ``reset()`` waits for that lock without a timeout, so the
        reset runs on a helper thread and is given up on (left blocked)
        rather than hanging the supervisor.
        """
        barrier = self._barrier
        done: list = []

        def reset() -> None:
            try:
                barrier.reset()
            except Exception:
                return
            done.append(True)

        worker = threading.Thread(target=reset, name="repro-barrier-reset", daemon=True)
        worker.start()
        worker.join(max(1.0, self.heartbeat_s))
        return bool(done)

    def _dispatch_run(self, refreshed: bool, from_phase: int, attempt: int) -> None:
        msg = ("run", refreshed, from_phase, attempt, self._fault_plan)
        for s, conn in enumerate(self._conns):
            try:
                conn.send(msg)
            except (BrokenPipeError, EOFError, OSError):
                raise _ShardFailure(
                    [s],
                    "worker died",
                    from_phase,
                    f"shard {s} died before run dispatch",
                )

    def _supervise_run(self, from_phase: int, deadline=None) -> list:
        """Multiplex worker pipes until every shard reaches an outcome.

        Outcomes: ``stats`` (finished), ``aborted`` (unblocked from a
        broken barrier), ``error`` (worker exception), ``died`` (pipe
        EOF), ``hung`` (silent past ``heartbeat_s``; the stage ticks
        single out the laggard among workers parked at a barrier).
        Anything other than all-``stats`` raises :class:`_ShardFailure`
        carrying the culprits and the restart phase — except an expired
        ``deadline``: the barrier is aborted once, and when every worker
        has reported without a casualty the barrier is reset and
        :class:`~repro.util.timing.SolveDeadlineError` raised instead.
        """
        n = self.n_shards
        hb = self.heartbeat_s
        stats: list = [None] * n
        outcome: list = [None] * n
        completed = [from_phase - 1] * n
        ticks = [0] * n
        now = time.monotonic()
        last_seen = [now] * n
        errors: dict[int, str] = {}
        shard_of = {conn: s for s, conn in enumerate(self._conns)}

        def open_shards():
            return [s for s in range(n) if outcome[s] is None]

        def aborted_grace() -> None:
            # the barrier just broke: give still-open workers a fresh
            # heartbeat window to notice and report before staleness fires
            fresh = time.monotonic()
            for s in open_shards():
                last_seen[s] = fresh

        expired = False
        while open_shards():
            timeout = min(1.0, hb / 4.0)
            if deadline is not None and not expired:
                timeout = min(timeout, deadline.remaining())
                if timeout <= 0.0:
                    expired = True
                    self._abort_barrier()
                    aborted_grace()
                    continue
            pending = [c for c, s in shard_of.items() if outcome[s] is None]
            ready = mp_connection.wait(pending, timeout=timeout)
            now = time.monotonic()
            if not ready:
                stale = [s for s in open_shards() if now - last_seen[s] > hb]
                if not stale:
                    continue
                # workers parked at a barrier sent an arrival tick the
                # laggard never reached — only the laggards are hung
                max_tick = max(ticks[s] for s in open_shards())
                behind = [s for s in stale if ticks[s] < max_tick]
                for s in behind or stale:
                    outcome[s] = "hung"
                self._abort_barrier()
                aborted_grace()
                continue
            for conn in ready:
                s = shard_of[conn]
                if outcome[s] is not None:
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    outcome[s] = "died"
                    self._abort_barrier()
                    aborted_grace()
                    continue
                last_seen[s] = now
                kind = msg[0]
                if kind == "hb":
                    ticks[s] = msg[1]
                    completed[s] = max(completed[s], msg[2])
                elif kind == "stats":
                    outcome[s] = "stats"
                    stats[s] = msg[1]
                elif kind == "aborted":
                    outcome[s] = "aborted"
                    completed[s] = max(completed[s], msg[1])
                elif kind == "error":
                    outcome[s] = "error"
                    errors[s] = msg[1]
                    self._abort_barrier()
                    aborted_grace()

        culprits = [s for s in range(n) if outcome[s] in ("died", "error", "hung")]
        if expired and not culprits:
            # every worker is back in its command loop: nobody waits on
            # the barrier, so it can be reset for the next solve — or, when
            # the reset cannot finish, the next solve starts a fresh pool
            if not self._reset_barrier():
                self._teardown_pool()
                self._drop_session()
            raise SolveDeadlineError(
                deadline.seconds, f"shards (phase {min(completed) + 1})"
            )
        if all(o == "stats" for o in outcome):
            return stats
        if any(outcome[s] == "hung" for s in culprits):
            reason = "heartbeat timeout"
        elif any(outcome[s] == "died" for s in culprits):
            reason = "worker died"
        elif culprits:
            reason = "worker error"
        else:
            reason = "barrier aborted"
        detail = "; ".join(
            f"shard {s} {outcome[s]}" for s in range(n) if outcome[s] != "stats"
        )
        for s, tb in errors.items():
            detail += f"\nshard {s} traceback:\n{tb}"
        raise _ShardFailure(culprits, reason, min(completed) + 1, detail)

    def _respawn(self, s: int) -> None:
        """Kill shard ``s``'s process (if alive) and start a fresh one."""
        p = self._procs[s]
        if p.is_alive():
            p.terminate()
            p.join(timeout=5.0)
            if p.is_alive():
                p.kill()
                p.join(timeout=5.0)
        else:
            p.join(timeout=5.0)
        try:
            self._conns[s].close()
        except OSError:
            pass
        parent, child = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child, self._barrier, s),
            name=f"repro-shard-{s}",
            daemon=True,
        )
        proc.start()
        child.close()
        self._procs[s] = proc
        self._conns[s] = parent

    def _reinstall(self, s: int, sess: _Session) -> bool:
        """Feed the retained plan pickle to a respawned worker."""
        conn = self._conns[s]
        try:
            conn.send(("install", sess.plan_path))
            if not conn.poll(self.timeout_s + 30.0):
                return False
            msg = conn.recv()
        except (BrokenPipeError, EOFError, OSError):
            return False
        return msg[0] == "ok"

    def _recover(self, failure: _ShardFailure, sess: _Session) -> int:
        """Repair the pool after one failed attempt; returns respawn count.

        Survivors are pinged (positive sync that they are back in the
        command loop with their pipe drained); any that cannot answer
        within the heartbeat window join the culprits.  Culprits are
        killed, respawned, and re-fed the session plan; finally the
        shared barrier is reset for the retry.
        """
        self._abort_barrier()
        culprits = set(failure.culprits)
        self._ping_token += 1
        token = self._ping_token
        deadline = time.monotonic() + max(1.0, self.heartbeat_s) + 5.0
        for s, conn in enumerate(self._conns):
            if s in culprits:
                continue
            try:
                conn.send(("ping", token))
            except (BrokenPipeError, OSError):
                culprits.add(s)
                continue
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not conn.poll(max(0.05, remaining)):
                    culprits.add(s)
                    break
                try:
                    msg = conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    culprits.add(s)
                    break
                if msg[0] == "pong" and msg[1] == token:
                    break
        for s in sorted(culprits):
            self._respawn(s)
            if not self._reinstall(s, sess):
                self._fail(
                    f"shard {s} failed plan reinstall after respawn "
                    f"(original failure: {failure.detail or failure.reason})",
                    reason=failure.reason,
                )
        if not self._reset_barrier():
            self._fail(
                "barrier could not be reset after shard recovery",
                reason=failure.reason,
            )
        n_respawned = len(culprits)
        self.total_respawns += n_respawned
        if failure.restart_phase > 0:
            self.total_partial_redos += 1
        return n_respawned

    def _run(self, sess: _Session, deadline=None) -> ShardRunResult:
        refreshed = sess.needs_refresh
        sess.needs_refresh = False
        attempt = 0
        from_phase = 0
        failures = 0
        respawned = 0
        restart_phases: list = []
        while True:
            try:
                self._dispatch_run(refreshed and attempt == 0, from_phase, attempt)
                stats = self._supervise_run(from_phase, deadline)
                break
            except _ShardFailure as f:
                failures += 1
                if failures > self.max_respawns:
                    self._fail(
                        f"shard run failed ({f.reason}) with "
                        f"{failures - 1} recovery attempt(s) spent "
                        f"(max_respawns={self.max_respawns}): {f.detail}",
                        reason=f.reason,
                    )
                respawned += self._recover(f, sess)
                from_phase = f.restart_phase
                restart_phases.append(f.restart_phase)
                attempt += 1
        part = sess.extras["part"]
        work = [w for w in part.rank_work if w > 0] or [1.0]
        mean_w = sum(work) / len(work)
        res = ShardRunResult(
            n_shards=self.n_shards,
            shard_busy=[st["busy"] for st in stats],
            barrier_seconds=sum(st["barrier_s"] for st in stats),
            halo_bytes=sum(st["halo_bytes"] for st in stats),
            halo_seconds=sum(st["halo_s"] for st in stats),
            partition_imbalance=(max(part.rank_work) / mean_w if mean_w else 1.0),
            respawns=respawned,
            partial_redos=sum(1 for p in restart_phases if p > 0),
            restart_phases=restart_phases,
        )
        self.last_result = res
        return res

    # -------------------------------------------------------------- solves
    def solve(
        self, tree, lists, expansion, kernel, charges, near_q, *, far,
        potential=True, gradient=False, deadline=None,
    ):
        """One sharded solve: the far-field pass of ``charges`` — ``(n,)``
        or ``(n, k)`` — with the output flags ``far`` (``potential`` /
        ``gradient`` keywords), and the near field of ``near_q`` with its
        ``potential`` / ``gradient`` flags.  Mirrors the serial sweeps
        exactly; returns ``(far_pot, far_grad, near_pot, near_grad)`` —
        copies, ``None`` where not requested, the far pair shaped by
        :func:`~repro.fmm.farfield.channel_outputs`.
        An expired ``deadline`` raises
        :class:`~repro.util.timing.SolveDeadlineError` and leaves the pool
        and the installed session ready for the next solve.
        """
        src = farfield.charge_channels(charges, tree.n_bodies)
        near_q = np.asarray(near_q, dtype=float)
        sess = self._ensure_session(
            tree, lists, expansion, kernel, src.shape[1],
            far_potential=far["potential"], far_gradient=far["gradient"],
            near_potential=potential, near_gradient=gradient,
            near_shape=near_q.shape[1:],
        )
        v = sess.arena.views
        v["src"][:] = src
        v["nearq"][:] = near_q
        self._run(sess, deadline)

        def out(name):
            return v[name].copy() if name in v else None

        far = farfield.channel_outputs(charges, out("fpot"), out("fgrad"))
        return (*far, out("near_pot"), out("near_grad"))

    def solve_laplace(
        self, tree, lists, expansion, kernel, q, *, potential=True,
        gradient=False, deadline=None,
    ):
        """One sharded Laplace solve — :meth:`solve` with one charge channel
        that is also the near field's strengths; returns ``(far_pot,
        far_grad, near_pot, near_grad)`` copies (None where not
        requested)."""
        q = np.asarray(q, dtype=float).reshape(-1)
        flags = dict(potential=potential, gradient=gradient)
        return self.solve(
            tree, lists, expansion, kernel, q, q, far=flags, deadline=deadline, **flags
        )
