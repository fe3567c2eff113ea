"""Sharded multi-process FMM backend over shared-memory Morton-range shards.

This is the real-process sibling of :mod:`repro.runtime.engine`: the
octree is split into Morton-contiguous leaf ranges by the work-weighted
partitioner (:func:`repro.cluster.partition.partition_by_morton_work`),
each shard runs in its own **spawned** worker process, and every large
array — bodies, strengths, multipole/local coefficients, outputs —
lives in one :class:`multiprocessing.shared_memory.SharedMemory` arena
that all workers map.  Reading another shard's coefficient rows through
the arena is the one-sided-get transport; the explicitly timed gathers
of remote multipole rows and boundary P2P bodies are the halo exchange
the :func:`repro.cluster.let.build_let` machinery predicts (its byte
model is reported alongside the measured traffic).

Bitwise determinism
-------------------
Results are **bitwise identical** to the serial solver at any shard
count.  The serial far field is a sequence of class operations; float
matmuls are only reproducible when the *whole* operand matrix is
identical (BLAS picks kernels by shape, so ``(A @ B)[sel]`` differs from
``A[sel] @ B`` in the last ulp), hence the schedule never row-subsets a
matmul:

* whole translation classes (M2M/M2L/L2L) are assigned to single
  shards, which compute the exact serial ``rows @ op`` product into a
  shared delta scratch;
* merges (``+=`` into shared coefficient rows) are row-owner based: each
  shard folds only the rows it owns, in ascending class order — every
  row sees the same additions in the same serial order;
* per-body stages (P2M/L2P/P2P) use only row-independent primitives
  (``einsum``, segment sums, elementwise) on per-shard leaf/body
  subsets, which are bit-exact under subsetting;
* order-sensitive scatter stages (P2L/M2P ``np.add.at``, the near-field
  self correction) run whole on one shard.

Supersteps are separated by a :class:`multiprocessing.Barrier`.

Supervision and recovery
------------------------
The parent runs a shard supervisor around every solve.  Workers send
small heartbeat messages over their control pipes — one before each
barrier wait and one at each named stage (``p2m``, ``m2m``, ``halo``,
``m2l``, ``p2l``, ``l2l``, ``l2p``, ``m2p``, ``near``, ``near-self``,
suffixed ``@pass`` in multi-pass runs) — each carrying a monotonic tick
and the highest fully completed *phase* (pass index; the near field is
the final phase).  The supervisor multiplexes all pipes with a read
deadline (``heartbeat_s``), so worker death (pipe EOF), a worker
exception, or a wedged worker (no message within the deadline; the
stage ticks identify the laggard) all surface in bounded wall-clock.

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
import weakref
from dataclasses import dataclass, field
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "PassSpec",
    "ProcessEngine",
    "ShardExecutionError",
    "ShardRunResult",
    "default_shards",
    "supervisor_snapshot",
]

#: delta-scratch row budget per M2L superstep round (bounds arena size)
M2L_ROUND_ROWS = 262_144

#: bytes per boundary body in the LET comm model (24 position + 8 charge)
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


#: live engines, so the serve layer's status verb can report supervisor
#: state without owning a reference (see :func:`supervisor_snapshot`)
_ENGINES: "weakref.WeakSet[ProcessEngine]" = weakref.WeakSet()


def supervisor_snapshot() -> dict:
    """Aggregate supervision counters across every live ProcessEngine."""
    engines = list(_ENGINES)
    return {
        "engines": len(engines),
        "shards": sum(e.n_shards for e in engines),
        "runs_total": sum(e.total_runs for e in engines),
        "respawns_total": sum(e.total_respawns for e in engines),
        "partial_redos_total": sum(e.total_partial_redos for e in engines),
        "serial_fallbacks_total": sum(
            e.total_serial_fallbacks for e in engines
        ),
    }


def default_shards() -> int:
    """Affinity-aware usable-CPU count (a container pinned to 2 cores of a
    64-core host gets 2)."""
    if hasattr(os, "sched_getaffinity"):
        return max(1, len(os.sched_getaffinity(0)))
    return max(1, os.cpu_count() or 1)


# --------------------------------------------------------------------------
# plan: everything a worker needs, pickled once per structure
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PassSpec:
    """One far-field pass: monopole or dipole strengths, output flags."""

    kind: str  # "charges" | "dipoles"
    potential: bool = True
    gradient: bool = False


@dataclass
class _Round:
    """One delta/merge superstep: class indices with scratch offsets."""

    cis: np.ndarray  # class indices, ascending (the serial merge order)
    offsets: np.ndarray  # delta-scratch row offset per class (aligned)
    rows: int  # total scratch rows this round
    assignee: np.ndarray  # computing shard per class (aligned)


@dataclass
class GlobalPlan:
    """The full shard execution plan (structure-dependent, not per-solve)."""

    n_shards: int
    n_bodies: int
    n_eff: int
    n_leaves: int
    n_coeffs: int
    backend: str
    order: int
    is_complex: bool
    kernel: object
    passes: list
    near_potential: bool
    near_gradient: bool
    near_strength_cols: int  # 0 -> (n,) strengths, else (n, cols)
    value_dim: int
    arena_name: str
    layout: dict
    timeout_s: float
    # far-field skeleton (class row arrays + dense operators)
    up_classes: list
    m2l_classes: list
    down_classes: list
    up_rounds: list
    m2l_rounds: list
    down_rounds: list
    delta_rows: int
    leaf_rows: np.ndarray
    leaf_pos: np.ndarray
    centers: np.ndarray
    x_recv_rows: np.ndarray
    x_src_rows: np.ndarray
    w_tgt_rows: np.ndarray
    w_src_rows: np.ndarray
    # ownership / assignment
    row_rank: np.ndarray  # (n_eff,) owner shard per effective row
    leaf_shard: np.ndarray  # (n_leaves,) owner shard per leaf ordinal
    body_owner: np.ndarray  # (n_bodies,) owner shard per body
    near_assignee: np.ndarray  # (n_groups,) computing shard per near group
    n_groups: int
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


def _coeff_dtype(is_complex: bool):
    return np.complex128 if is_complex else np.float64


class _Arena:
    """One shared-memory block holding every named array, 64-byte aligned."""

    def __init__(self, entries, name: str | None = None, create: bool = True):
        layout = {}
        off = 0
        for nm, shape, dtype in entries:
            dt = np.dtype(dtype)
            off = (off + 63) & ~63
            layout[nm] = (off, tuple(int(s) for s in shape), dt.str)
            off += int(np.prod(shape, dtype=np.int64)) * dt.itemsize
        self.layout = layout
        size = max(1, off)
        if create:
            self.shm = shared_memory.SharedMemory(create=True, size=size)
        else:
            self.shm = _attach_shm(name)
        self.views = {
            nm: np.ndarray(shape, dtype=np.dtype(ds), buffer=self.shm.buf, offset=o)
            for nm, (o, shape, ds) in layout.items()
        }

    @classmethod
    def attach(cls, name: str, layout: dict) -> "_Arena":
        self = cls.__new__(cls)
        self.layout = layout
        self.shm = _attach_shm(name)
        self.views = {
            nm: np.ndarray(shape, dtype=np.dtype(ds), buffer=self.shm.buf, offset=o)
            for nm, (o, shape, ds) in layout.items()
        }
        return self

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


def _build_plan(tree, lists, expansion, kernel, passes, *, near_potential,
                near_gradient, near_strength_cols, value_dim, n_shards,
                timeout_s):
    """Build the :class:`GlobalPlan` + arena entry list for one structure.

    Returns ``(plan_sans_arena, arena_entries, extras)`` where ``extras``
    carries parent-only objects (partition, LET, body/near plans).
    """
    from repro.cluster.let import build_let
    from repro.cluster.partition import partition_by_morton_work
    from repro.fmm.farfield import _leaf_body_plan, _level_groups, far_field_geometry
    from repro.fmm.nearfield import build_near_field_plan

    geom = far_field_geometry(tree, lists, expansion)
    bplan = _leaf_body_plan(tree, lists)
    nplan = build_near_field_plan(tree, lists)
    part = partition_by_morton_work(
        tree, lists, n_shards, order=expansion.order, kernel=kernel
    )
    let = build_let(part, n_coeffs=expansion.n_coeffs)

    eff = tree.effective_nodes()
    n_eff = len(eff)
    row_rank = np.fromiter(
        (part.node_rank(int(nid)) for nid in eff), dtype=np.int64, count=n_eff
    )
    leaf_shard = row_rank[geom.leaf_rows]
    n_leaves = int(geom.leaf_rows.size)
    n = tree.n_bodies
    counts = np.diff(bplan.ptr)
    body_owner = np.empty(n, dtype=np.int64)
    body_owner[bplan.body_idx] = np.repeat(leaf_shard, counts)

    # ---- delta/merge rounds (one per up level; M2L chunked by row budget)
    up_rounds = []
    for grp in _level_groups(geom.up_class_levels):
        w = [int(geom.up_classes[ci][0].size) for ci in grp]
        offs = np.concatenate(([0], np.cumsum(w)))[:-1].astype(np.int64)
        up_rounds.append(
            _Round(
                cis=np.asarray(grp, dtype=np.int64),
                offsets=offs,
                rows=int(sum(w)),
                assignee=_lpt_assign(w, n_shards),
            )
        )
    m2l_rounds = []
    cur: list[int] = []
    cw: list[int] = []
    for ci, (srows, _trows, _op) in enumerate(geom.m2l_classes):
        if cur and sum(cw) + srows.size > M2L_ROUND_ROWS:
            offs = np.concatenate(([0], np.cumsum(cw)))[:-1].astype(np.int64)
            m2l_rounds.append(
                _Round(
                    cis=np.asarray(cur, dtype=np.int64),
                    offsets=offs,
                    rows=int(sum(cw)),
                    assignee=_lpt_assign(cw, n_shards),
                )
            )
            cur, cw = [], []
        cur.append(ci)
        cw.append(int(srows.size))
    if cur:
        offs = np.concatenate(([0], np.cumsum(cw)))[:-1].astype(np.int64)
        m2l_rounds.append(
            _Round(
                cis=np.asarray(cur, dtype=np.int64),
                offsets=offs,
                rows=int(sum(cw)),
                assignee=_lpt_assign(cw, n_shards),
            )
        )
    down_rounds = []
    for grp in _level_groups(geom.down_class_levels):
        w = [int(geom.down_classes[ci][1].size) for ci in grp]
        down_rounds.append(
            _Round(
                cis=np.asarray(grp, dtype=np.int64),
                offsets=np.zeros(len(grp), dtype=np.int64),
                rows=0,
                assignee=_lpt_assign(w, n_shards),
            )
        )
    delta_rows = max(
        [1] + [r.rows for r in up_rounds] + [r.rows for r in m2l_rounds]
    )

    near_w = [
        int(nplan.tgt_ptr[g + 1] - nplan.tgt_ptr[g])
        * int(nplan.src_ptr[g + 1] - nplan.src_ptr[g])
        for g in range(nplan.n_groups)
    ]
    near_assignee = _lpt_assign(near_w, n_shards)

    row_ranges = np.array(
        [(n_eff * s) // n_shards for s in range(n_shards + 1)], dtype=np.int64
    )
    body_ranges = np.array(
        [(n * s) // n_shards for s in range(n_shards + 1)], dtype=np.int64
    )
    grad_axis_shard = np.arange(3, dtype=np.int64) % n_shards

    is_complex = expansion.backend == "spherical"
    cdt = _coeff_dtype(is_complex)
    nc = expansion.n_coeffs
    any_grad = any(p.gradient for p in passes)

    entries = [
        ("points", (n, 3), np.float64),
        ("M", (n_eff, nc), cdt),
        ("L", (n_eff, nc), cdt),
        ("D", (delta_rows, nc), cdt),
        ("body_idx", (n,), np.int64),
        ("ptr", (n_leaves + 1,), np.int64),
        ("gid", (n,), np.int64),
        ("rel", (n, 3), np.float64),
        ("nt_idx", nplan.tgt_idx.shape, np.int64),
        ("nt_ptr", nplan.tgt_ptr.shape, np.int64),
        ("ns_idx", nplan.src_idx.shape, np.int64),
        ("ns_ptr", nplan.src_ptr.shape, np.int64),
        ("nself", nplan.self_idx.shape, np.int64),
    ]
    if any_grad:
        entries.append(("GK", (3, n_leaves, nc), cdt))
    for i, spec in enumerate(passes):
        if spec.kind == "charges":
            entries.append((f"q{i}", (n,), np.float64))
        else:
            entries.append((f"dip{i}", (n, 3), np.float64))
        if spec.potential:
            entries.append((f"fpot{i}", (n,), np.float64))
        if spec.gradient:
            entries.append((f"fgrad{i}", (n, 3), np.float64))
    if near_potential:
        shape = (n,) if value_dim == 1 else (n, value_dim)
        entries.append(("near_pot", shape, np.float64))
    if near_gradient:
        entries.append(("near_grad", (n, 3), np.float64))
    nq_shape = (n,) if near_strength_cols == 0 else (n, near_strength_cols)
    entries.append(("nearq", nq_shape, np.float64))

    plan = GlobalPlan(
        n_shards=n_shards,
        n_bodies=n,
        n_eff=n_eff,
        n_leaves=n_leaves,
        n_coeffs=nc,
        backend=expansion.backend,
        order=expansion.order,
        is_complex=is_complex,
        kernel=kernel,
        passes=list(passes),
        near_potential=near_potential,
        near_gradient=near_gradient,
        near_strength_cols=near_strength_cols,
        value_dim=value_dim,
        arena_name="",
        layout={},
        timeout_s=timeout_s,
        up_classes=list(geom.up_classes),
        m2l_classes=list(geom.m2l_classes),
        down_classes=list(geom.down_classes),
        up_rounds=up_rounds,
        m2l_rounds=m2l_rounds,
        down_rounds=down_rounds,
        delta_rows=delta_rows,
        leaf_rows=geom.leaf_rows,
        leaf_pos=geom.leaf_pos,
        centers=geom.centers,
        x_recv_rows=geom.x_recv_rows,
        x_src_rows=geom.x_src_rows,
        w_tgt_rows=geom.w_tgt_rows,
        w_src_rows=geom.w_src_rows,
        row_rank=row_rank,
        leaf_shard=leaf_shard,
        body_owner=body_owner,
        near_assignee=near_assignee,
        n_groups=nplan.n_groups,
        row_ranges=row_ranges,
        body_ranges=body_ranges,
        grad_axis_shard=grad_axis_shard,
    )
    extras = {"part": part, "let": let, "bplan": bplan, "nplan": nplan}
    return plan, entries, extras


# --------------------------------------------------------------------------
# worker
# --------------------------------------------------------------------------


class _WorkerState:
    """Per-shard execution state: arena views + precomputed assignments."""

    def __init__(self, plan: GlobalPlan, shard_id: int, barrier) -> None:
        self.plan = plan
        self.me = shard_id
        self.barrier = barrier
        self.arena = _Arena.attach(plan.arena_name, plan.layout)
        self.v = self.arena.views
        self.exp = _make_expansion(plan.backend, plan.order)

        from repro.fmm.farfield import _expand_segments

        # per-shard leaf/body subset (row-independent stages)
        self.my_leaves = np.nonzero(plan.leaf_shard == self.me)[0]
        ptr = self.v["ptr"]
        self.rowpos, cnts = _expand_segments(ptr, self.my_leaves)
        self.sub_ptr = np.concatenate(([0], np.cumsum(cnts))).astype(np.int64)

        # ownership merge selections, per round/class (serial class order)
        self.up_merge = self._merge_sel(plan.up_rounds, plan.up_classes, 1)
        self.m2l_merge = self._merge_sel(plan.m2l_rounds, plan.m2l_classes, 1)

        # M2L halo: remote multipole rows my assigned classes read
        mine = []
        for rnd in plan.m2l_rounds:
            for k, ci in enumerate(rnd.cis):
                if rnd.assignee[k] == self.me:
                    mine.append(plan.m2l_classes[int(ci)][0])
        if mine:
            src = np.unique(np.concatenate(mine))
            self.halo_rows = src[plan.row_rank[src] != self.me]
        else:
            self.halo_rows = np.empty(0, dtype=np.int64)

        # near groups + boundary-body halo (sources owned by other shards)
        self.my_groups = np.nonzero(plan.near_assignee == self.me)[0]
        sp = self.v["ns_ptr"]
        segs = [
            self.v["ns_idx"][sp[g] : sp[g + 1]] for g in self.my_groups.tolist()
        ]
        if segs:
            s_all = np.unique(np.concatenate(segs)) if len(segs) else None
            self.near_remote = s_all[plan.body_owner[s_all] != self.me]
        else:
            self.near_remote = np.empty(0, dtype=np.int64)

        self._basis_cache: dict[str, np.ndarray] = {}
        self._beat = lambda label=None: None
        self.completed_phase = -1
        self._grad_mats = (
            self.exp.l2p_gradient_matrices()
            if any(p.gradient for p in plan.passes)
            else ()
        )

    def _merge_sel(self, rounds, classes, dest_pos):
        """For every round: ``[(ci, offset, sel, dest_rows)]`` of my rows."""
        out = []
        rr = self.plan.row_rank
        for rnd in rounds:
            items = []
            for k, ci in enumerate(rnd.cis):
                dest = classes[int(ci)][dest_pos]
                sel = np.nonzero(rr[dest] == self.me)[0]
                if sel.size:
                    items.append((int(ci), int(rnd.offsets[k]), sel, dest[sel]))
            out.append(items)
        return out

    def refresh(self) -> None:
        """Positions moved (same structure): drop rel-derived caches."""
        self._basis_cache.clear()

    # ------------------------------------------------------------- helpers
    def _leaf_basis(self, kind: str) -> np.ndarray:
        if self.plan.backend == "spherical":
            kind = "regular"
        b = self._basis_cache.get(kind)
        if b is None:
            fn = self.exp.p2m_basis if kind == "p2m" else self.exp.l2p_basis
            b = self._basis_cache[kind] = fn(self.v["rel"][self.rowpos])
        return b

    def _wait(self) -> None:
        self._beat()  # barrier-arrival heartbeat: the laggard stands out
        t0 = time.perf_counter()
        self.barrier.wait(self.plan.timeout_s)
        self.barrier_s += time.perf_counter() - t0

    def _span(self, label: str, t0: float) -> None:
        t1 = time.perf_counter()
        self.intervals.append((label, self.me, t0 - self.t_run, t1 - self.t_run))
        self.phase_s[label] = self.phase_s.get(label, 0.0) + (t1 - t0)

    # --------------------------------------------------------------- stages
    def _zero_coeffs(self) -> None:
        lo, hi = self.plan.row_ranges[self.me], self.plan.row_ranges[self.me + 1]
        self.v["M"][lo:hi] = 0.0
        self.v["L"][lo:hi] = 0.0

    def _p2m(self, i: int, spec: PassSpec) -> None:
        if not self.rowpos.size:
            return
        from repro.fmm.farfield import _segment_sum

        plan, v = self.plan, self.v
        bi = v["body_idx"][self.rowpos]
        rows = None
        if spec.kind == "charges":
            rows = v[f"q{i}"][bi, None] * self._leaf_basis("p2m")
        else:
            rows = self.exp.p2m_dipole_rows(
                v["rel"][self.rowpos], v[f"dip{i}"][bi], self.sub_ptr
            )
        v["M"][plan.leaf_rows[self.my_leaves]] = _segment_sum(rows, self.sub_ptr)

    def _deltas(self, rnd: _Round, classes) -> None:
        M, D = self.v["M"], self.v["D"]
        for k, ci in enumerate(rnd.cis):
            if rnd.assignee[k] != self.me:
                continue
            src, _dst, op = classes[int(ci)]
            off = int(rnd.offsets[k])
            D[off : off + src.size] = M[src] @ op

    def _merges(self, items, target: str) -> None:
        T, D = self.v[target], self.v["D"]
        for _ci, off, sel, dest in items:
            T[dest] += D[off + sel]

    def _halo_gather(self) -> None:
        if not self.halo_rows.size:
            return
        t0 = time.perf_counter()
        buf = self.v["M"][self.halo_rows]
        self.halo_bytes += buf.nbytes
        self.halo_s += time.perf_counter() - t0
        self._span("halo", t0)

    def _p2l(self, i: int, spec: PassSpec) -> None:
        plan, v = self.plan, self.v
        if not plan.x_recv_rows.size:
            return
        from repro.fmm.farfield import _expand_segments, _segment_sum

        rowpos, cnt = _expand_segments(v["ptr"], plan.leaf_pos[plan.x_src_rows])
        if not rowpos.size:
            return
        pair_of = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
        b_idx = v["body_idx"][rowpos]
        relx = v["points"][b_idx] - plan.centers[plan.x_recv_rows[pair_of]]
        pair_ptr = np.concatenate(([0], np.cumsum(cnt)))
        if spec.kind == "charges":
            rows = v[f"q{i}"][b_idx, None] * self.exp.p2l_basis(relx)
        else:
            rows = self.exp.p2l_dipole_rows(relx, v[f"dip{i}"][b_idx], pair_ptr)
        np.add.at(self.v["L"], plan.x_recv_rows, _segment_sum(rows, pair_ptr))

    def _l2l(self, rnd: _Round) -> None:
        L = self.v["L"]
        for k, ci in enumerate(rnd.cis):
            if rnd.assignee[k] != self.me:
                continue
            prows, crows, op = self.plan.down_classes[int(ci)]
            L[crows] += L[prows] @ op

    def _gk(self) -> None:
        plan = self.plan
        leaf_loc = self.v["L"][plan.leaf_rows]
        for k, A in enumerate(self._grad_mats):
            if plan.grad_axis_shard[k] != self.me:
                continue
            self.v["GK"][k] = leaf_loc @ A

    def _l2p(self, i: int, spec: PassSpec) -> None:
        if not self.rowpos.size:
            return
        plan, v = self.plan, self.v
        bi = v["body_idx"][self.rowpos]
        basis = self._leaf_basis("l2p")
        if spec.potential:
            row_loc = v["L"][plan.leaf_rows[v["gid"][self.rowpos]]]
            vals = np.einsum("ij,ij->i", basis, row_loc)
            v[f"fpot{i}"][bi] = vals.real if plan.is_complex else vals
        if spec.gradient:
            for k in range(3):
                gk_rows = v["GK"][k][v["gid"][self.rowpos]]
                vals = np.einsum("ij,ij->i", basis, gk_rows)
                v[f"fgrad{i}"][bi, k] = vals.real if plan.is_complex else vals

    def _m2p(self, i: int, spec: PassSpec) -> None:
        plan, v = self.plan, self.v
        if not plan.w_tgt_rows.size:
            return
        from repro.fmm.farfield import _expand_segments

        rowpos, cnt = _expand_segments(v["ptr"], plan.leaf_pos[plan.w_tgt_rows])
        if not rowpos.size:
            return
        pair_of = np.repeat(np.arange(cnt.size, dtype=np.int64), cnt)
        b_idx = v["body_idx"][rowpos]
        relw = v["points"][b_idx] - plan.centers[plan.w_src_rows[pair_of]]
        mom = v["M"][plan.w_src_rows]
        if spec.potential:
            Bw = self.exp.m2p_basis(relw)
            vals = np.einsum("ij,ij->i", Bw, mom[pair_of])
            np.add.at(
                v[f"fpot{i}"], b_idx, vals.real if plan.is_complex else vals
            )
        if spec.gradient:
            Bbig = self.exp.m2p_grad_basis(relw)
            for k, A in enumerate(self.exp.m2p_gradient_matrices()):
                gk = mom @ A
                vals = np.einsum("ij,ij->i", Bbig, gk[pair_of])
                np.add.at(
                    v[f"fgrad{i}"][:, k],
                    b_idx,
                    vals.real if plan.is_complex else vals,
                )

    # ----------------------------------------------------------- near field
    def _near_zero(self) -> None:
        plan = self.plan
        lo, hi = plan.body_ranges[self.me], plan.body_ranges[self.me + 1]
        if plan.near_potential:
            self.v["near_pot"][lo:hi] = 0.0
        if plan.near_gradient:
            self.v["near_grad"][lo:hi] = 0.0

    def _near_halo(self) -> None:
        if not self.near_remote.size:
            return
        t0 = time.perf_counter()
        pbuf = self.v["points"][self.near_remote]
        qbuf = self.v["nearq"][self.near_remote]
        self.halo_bytes += self.near_remote.size * _BODY_POS_BYTES + qbuf.nbytes
        del pbuf
        self.halo_s += time.perf_counter() - t0
        self._span("halo", t0)

    def _near_groups(self) -> None:
        from repro.fmm.nearfield import evaluate_near_group

        plan, v = self.plan, self.v
        tp, sp = v["nt_ptr"], v["ns_ptr"]
        pot = v["near_pot"] if plan.near_potential else None
        grad = v["near_grad"] if plan.near_gradient else None
        for g in self.my_groups.tolist():
            evaluate_near_group(
                plan.kernel,
                v["points"],
                v["nearq"],
                v["nt_idx"][tp[g] : tp[g + 1]],
                v["ns_idx"][sp[g] : sp[g + 1]],
                pot,
                grad,
            )

    def _near_self(self) -> None:
        plan, v = self.plan, self.v
        si = v["nself"]
        if not si.size:
            return
        kernel = plan.kernel
        pts, q = v["points"], v["nearq"]
        if plan.near_potential:
            corr = kernel.self_interaction(pts[si], q[si], gradient=False)
            if plan.value_dim == 1:
                v["near_pot"][si] -= corr[:, 0]
            else:
                v["near_pot"][si] -= corr
        if plan.near_gradient:
            v["near_grad"][si] -= kernel.self_interaction(
                pts[si], q[si], gradient=True
            )

    # ------------------------------------------------------------------ run
    def run(self, refreshed: bool, from_phase: int = 0, beat=None) -> dict:
        """Execute phases ``from_phase..`` (pass indices, near field last).

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
        self.intervals: list = []
        self.phase_s: dict = {}
        self.completed_phase = from_phase - 1
        self._beat = beat if beat is not None else (lambda label=None: None)
        self._beat()
        self.barrier.wait(plan.timeout_s)  # align the clock origin
        self.t_run = time.perf_counter()
        tag = (lambda nm, i: f"{nm}@{i}") if len(plan.passes) > 1 else (
            lambda nm, i: nm
        )
        for i, spec in enumerate(plan.passes):
            if i < from_phase:
                continue
            self._beat(tag("p2m", i))
            self._zero_coeffs()
            self._wait()
            t = time.perf_counter()
            self._p2m(i, spec)
            self._span(tag("p2m", i), t)
            self._wait()
            for rnd, items in zip(plan.up_rounds, self.up_merge):
                self._beat(tag("m2m", i))
                t = time.perf_counter()
                self._deltas(rnd, plan.up_classes)
                self._span(tag("m2m", i), t)
                self._wait()
                t = time.perf_counter()
                self._merges(items, "M")
                self._span(tag("m2m", i), t)
                self._wait()
            self._beat(tag("halo", i))
            self._halo_gather()
            for rnd, items in zip(plan.m2l_rounds, self.m2l_merge):
                self._beat(tag("m2l", i))
                t = time.perf_counter()
                self._deltas(rnd, plan.m2l_classes)
                self._span(tag("m2l", i), t)
                self._wait()
                t = time.perf_counter()
                self._merges(items, "L")
                self._span(tag("m2l", i), t)
                self._wait()
            if plan.x_recv_rows.size:
                self._beat(tag("p2l", i))
                if self.me == 0:
                    t = time.perf_counter()
                    self._p2l(i, spec)
                    self._span(tag("p2l", i), t)
                self._wait()
            for rnd in plan.down_rounds:
                self._beat(tag("l2l", i))
                t = time.perf_counter()
                self._l2l(rnd)
                self._span(tag("l2l", i), t)
                self._wait()
            self._beat(tag("l2p", i))
            if spec.gradient:
                t = time.perf_counter()
                self._gk()
                self._span(tag("l2p", i), t)
                self._wait()
            t = time.perf_counter()
            self._l2p(i, spec)
            self._span(tag("l2p", i), t)
            if plan.w_tgt_rows.size:
                self._wait()
                self._beat(tag("m2p", i))
                if self.me == 0:
                    t = time.perf_counter()
                    self._m2p(i, spec)
                    self._span(tag("m2p", i), t)
            self._wait()
            self.completed_phase = i
        if plan.near_potential or plan.near_gradient:
            self._beat("near")
            self._near_zero()
            self._wait()
            self._near_halo()
            t = time.perf_counter()
            self._near_groups()
            self._span("p2p", t)
            self._wait()
            self._beat("near-self")
            if self.me == 0:
                t = time.perf_counter()
                self._near_self()
                self._span("p2p", t)
            self._wait()
        self.completed_phase = len(plan.passes)
        wall = time.perf_counter() - self.t_run
        return {
            "shard": self.me,
            "wall": wall,
            "busy": wall - self.barrier_s,
            "barrier_s": self.barrier_s,
            "halo_bytes": int(self.halo_bytes),
            "halo_s": self.halo_s,
            "phase_s": self.phase_s,
            "intervals": self.intervals,
        }

    def close(self) -> None:
        self.arena.close(unlink=False)


def _make_expansion(backend: str, order: int):
    if backend == "spherical":
        from repro.expansions.spherical import SphericalExpansion

        return SphericalExpansion(order)
    from repro.expansions.cartesian import CartesianExpansion

    return CartesianExpansion(order)


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
                state = _WorkerState(plan, shard_id, barrier)
                conn.send(("ok",))
            elif cmd == "refresh":
                state.refresh()
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
    """Observed execution of one sharded solve (telemetry + balancer feed)."""

    n_shards: int
    wall: float  # parent-observed makespan of the solve
    shard_walls: list = field(default_factory=list)
    shard_busy: list = field(default_factory=list)
    barrier_seconds: float = 0.0  # summed across shards (idle at barriers)
    halo_bytes: int = 0
    halo_seconds: float = 0.0
    let_bytes: float = 0.0  # LET comm-model prediction for this partition
    partition_imbalance: float = 1.0  # max/mean of partitioned work weights
    phase_seconds: dict = field(default_factory=dict)
    intervals: list = field(default_factory=list)
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

    @property
    def max_shard_wall(self) -> float:
        return max(self.shard_walls) if self.shard_walls else self.wall

    @property
    def mean_shard_busy(self) -> float:
        if not self.shard_busy:
            return self.wall
        return sum(self.shard_busy) / len(self.shard_busy)

    def timeline(self) -> list:
        """``(label, shard, start, end)`` rows for Perfetto shard lanes."""
        return list(self.intervals)

    def to_dict(self) -> dict:
        return {
            "n_shards": self.n_shards,
            "wall_s": self.wall,
            "shard_walls_s": [round(w, 6) for w in self.shard_walls],
            "imbalance": round(self.imbalance, 4),
            "idle_s": round(self.barrier_seconds, 6),
            "halo_bytes": int(self.halo_bytes),
            "halo_s": round(self.halo_seconds, 6),
            "let_bytes": round(self.let_bytes, 1),
            "partition_imbalance": round(self.partition_imbalance, 4),
            "respawns": int(self.respawns),
            "partial_redos": int(self.partial_redos),
        }

    def to_text(self) -> str:
        """Shard idle attribution, mirroring the worker-idle split of
        ``python -m repro report``."""
        lines = [
            f"shards: {self.n_shards}, makespan {self.wall * 1e3:.1f} ms, "
            f"busy imbalance {self.imbalance:.2f}x "
            f"(partition predicted {self.partition_imbalance:.2f}x)"
        ]
        for s, (w, b) in enumerate(zip(self.shard_walls, self.shard_busy)):
            idle = max(0.0, w - b)
            pct = 100.0 * idle / w if w > 0 else 0.0
            lines.append(
                f"  shard {s}: wall {w * 1e3:8.1f} ms  busy {b * 1e3:8.1f} ms  "
                f"idle {idle * 1e3:7.1f} ms ({pct:4.1f}%)"
            )
        lines.append(
            f"  halo: {self.halo_bytes} B in {self.halo_seconds * 1e3:.2f} ms "
            f"(LET model: {self.let_bytes:.0f} B)"
        )
        return "\n".join(lines)


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
    """Multi-process shard executor behind the thread-engine interface.

    ``solve_laplace`` / ``solve_stokeslet`` mirror the serial pass
    structure exactly (see the module docstring for the determinism
    contract); :attr:`last_result` carries the observed per-shard
    timings, halo traffic, and Perfetto lanes of the most recent run.
    """

    is_process = True

    def __init__(
        self,
        n_shards: int | None = None,
        *,
        timeout_s: float = 600.0,
        heartbeat_s: float | None = None,
        max_respawns: int = 2,
        telemetry=None,
    ) -> None:
        n_shards = default_shards() if n_shards is None else int(n_shards)
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
        self._telemetry = telemetry
        self._fault_plan = None
        self._ping_token = 0
        self._ctx = mp.get_context("spawn")
        self._procs: list = []
        self._conns: list = []
        self._barrier = None
        self._session: _Session | None = None
        self.last_result: ShardRunResult | None = None
        #: lifetime accumulators (the run ledger reads these at close)
        self.total_runs = 0
        self.total_halo_bytes = 0
        self.total_halo_seconds = 0.0
        self.total_idle_seconds = 0.0
        self.total_respawns = 0
        self.total_partial_redos = 0
        self.total_serial_fallbacks = 0
        _ENGINES.add(self)

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

    def _count(self, name: str, help_text: str, amount: int = 1) -> None:
        tel = self._telemetry
        if tel is None or not getattr(tel, "enabled", False) or amount <= 0:
            return
        try:
            tel.metrics.counter(name, help_text).inc(amount)
        except Exception:
            pass  # supervision must never fail on a telemetry hiccup

    # interface parity with ExecutionEngine
    @property
    def n_workers(self) -> int:
        return self.n_shards

    @property
    def parallel(self) -> bool:
        return True

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
    def _ensure_session(
        self, tree, lists, expansion, kernel, passes, *, near_potential,
        near_gradient, near_strength_cols, value_dim
    ) -> _Session:
        key = (
            id(tree),
            id(lists),
            tree.structure_generation,
            expansion.backend,
            expansion.order,
            tuple((p.kind, p.potential, p.gradient) for p in passes),
            near_potential,
            near_gradient,
            near_strength_cols,
            id(kernel),
        )
        sess = self._session
        if sess is not None and sess.key == key:
            if sess.generation != tree.generation:
                if self._refresh_session(sess, tree, lists, expansion, kernel):
                    return self._session
            else:
                return sess
        return self._install(
            tree, lists, expansion, kernel, passes, key,
            near_potential=near_potential, near_gradient=near_gradient,
            near_strength_cols=near_strength_cols, value_dim=value_dim,
        )

    def _install(
        self, tree, lists, expansion, kernel, passes, key, *, near_potential,
        near_gradient, near_strength_cols, value_dim
    ) -> _Session:
        self._drop_session()
        plan, entries, extras = _build_plan(
            tree, lists, expansion, kernel, passes,
            near_potential=near_potential, near_gradient=near_gradient,
            near_strength_cols=near_strength_cols, value_dim=value_dim,
            n_shards=self.n_shards, timeout_s=self.timeout_s,
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
        bplan, nplan = extras["bplan"], extras["nplan"]
        v["points"][:] = tree.points
        v["body_idx"][:] = bplan.body_idx
        v["ptr"][:] = bplan.ptr
        v["gid"][:] = bplan.gid
        v["rel"][:] = bplan.rel
        v["nt_idx"][:] = nplan.tgt_idx
        v["nt_ptr"][:] = nplan.tgt_ptr
        v["ns_idx"][:] = nplan.src_idx
        v["ns_ptr"][:] = nplan.src_ptr
        v["nself"][:] = nplan.self_idx

    def _refresh_session(self, sess, tree, lists, expansion, kernel) -> bool:
        """Same structure, new positions: rewrite body-plan arrays in place.

        Returns True when the in-place refresh sufficed; False when array
        shapes changed (near-field pair counts drifted) and the caller
        must fall through to a full re-install.
        """
        from repro.fmm.farfield import _leaf_body_plan
        from repro.fmm.nearfield import build_near_field_plan

        bplan = _leaf_body_plan(tree, lists)
        nplan = build_near_field_plan(tree, lists)
        v = sess.arena.views
        same = (
            v["ns_idx"].shape == nplan.src_idx.shape
            and v["nt_idx"].shape == nplan.tgt_idx.shape
            and v["nself"].shape == nplan.self_idx.shape
        )
        if not same:
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
        self._count(
            "shard_serial_fallback_total",
            "sharded solves abandoned past max_respawns (serial fallback)",
        )
        raise ShardExecutionError(message, reason=reason)

    # ------------------------------------------------------- supervision
    def _abort_barrier(self) -> None:
        try:
            if self._barrier is not None:
                self._barrier.abort()
        except Exception:
            pass

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

    def _supervise_run(self, from_phase: int) -> list:
        """Multiplex worker pipes until every shard reaches an outcome.

        Outcomes: ``stats`` (finished), ``aborted`` (unblocked from a
        broken barrier), ``error`` (worker exception), ``died`` (pipe
        EOF), ``hung`` (silent past ``heartbeat_s``; the stage ticks
        single out the laggard among workers parked at a barrier).
        Anything other than all-``stats`` raises :class:`_ShardFailure`
        carrying the culprits and the restart phase.
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

        while open_shards():
            pending = [c for c, s in shard_of.items() if outcome[s] is None]
            ready = mp_connection.wait(pending, timeout=min(1.0, hb / 4.0))
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

        if all(o == "stats" for o in outcome):
            return stats
        culprits = [s for s in range(n) if outcome[s] in ("died", "error", "hung")]
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
        try:
            self._barrier.reset()
        except Exception:
            self._fail(
                "barrier could not be reset after shard recovery",
                reason=failure.reason,
            )
        n_respawned = len(culprits)
        self.total_respawns += n_respawned
        self._count(
            "shard_respawns_total",
            "shard worker processes respawned by the supervisor",
            n_respawned,
        )
        if failure.restart_phase > 0:
            self.total_partial_redos += 1
            self._count(
                "shard_partial_redo_total",
                "recoveries that re-executed only the lost phases",
            )
        return n_respawned

    def _run(self, sess: _Session, tree) -> ShardRunResult:
        refreshed = sess.needs_refresh
        sess.needs_refresh = False
        t0 = time.perf_counter()
        attempt = 0
        from_phase = 0
        failures = 0
        respawned = 0
        restart_phases: list = []
        while True:
            try:
                self._dispatch_run(refreshed and attempt == 0, from_phase, attempt)
                stats = self._supervise_run(from_phase)
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
        wall = time.perf_counter() - t0
        part, let = sess.extras["part"], sess.extras["let"]
        work = [w for w in part.rank_work if w > 0] or [1.0]
        mean_w = sum(work) / len(work)
        phase: dict = {}
        intervals: list = []
        for st in stats:
            for k, dt in st["phase_s"].items():
                phase[k] = phase.get(k, 0.0) + dt
            intervals.extend(st["intervals"])
        res = ShardRunResult(
            n_shards=self.n_shards,
            wall=wall,
            shard_walls=[st["wall"] for st in stats],
            shard_busy=[st["busy"] for st in stats],
            barrier_seconds=sum(st["barrier_s"] for st in stats),
            halo_bytes=sum(st["halo_bytes"] for st in stats),
            halo_seconds=sum(st["halo_s"] for st in stats),
            let_bytes=sum(
                let.recv_bytes(r, tree) for r in range(self.n_shards)
            ),
            partition_imbalance=(max(part.rank_work) / mean_w if mean_w else 1.0),
            phase_seconds=phase,
            intervals=sorted(intervals, key=lambda iv: (iv[1], iv[2])),
            respawns=respawned,
            partial_redos=sum(1 for p in restart_phases if p > 0),
            restart_phases=restart_phases,
        )
        self.last_result = res
        self.total_runs += 1
        self.total_halo_bytes += res.halo_bytes
        self.total_halo_seconds += res.halo_seconds
        self.total_idle_seconds += sum(
            max(0.0, res.max_shard_wall - b) for b in res.shard_busy
        )
        return res

    # -------------------------------------------------------------- solves
    def solve_laplace(
        self, tree, lists, expansion, kernel, q, *, potential=True,
        gradient=False,
    ):
        """One sharded Laplace solve; returns ``(far_pot, far_grad,
        near_pot, near_grad)`` copies (None where not requested)."""
        passes = [PassSpec("charges", potential=potential, gradient=gradient)]
        sess = self._ensure_session(
            tree, lists, expansion, kernel, passes,
            near_potential=potential, near_gradient=gradient,
            near_strength_cols=0, value_dim=kernel.value_dim,
        )
        v = sess.arena.views
        qq = np.asarray(q, dtype=float).reshape(-1)
        v["q0"][:] = qq
        v["nearq"][:] = qq
        self._run(sess, tree)
        far_pot = v["fpot0"].copy() if potential else None
        far_grad = v["fgrad0"].copy() if gradient else None
        near_pot = v["near_pot"].copy() if potential else None
        near_grad = v["near_grad"].copy() if gradient else None
        return far_pot, far_grad, near_pot, near_grad

    def solve_stokeslet(self, tree, lists, expansion, kernel, forces):
        """The seven Stokeslet passes + vector near field in one session.

        Returns ``(phis, A, Bs, u_near)`` exactly as the serial pass
        sequence produces them (all copies).
        """
        f = np.atleast_2d(np.asarray(forces, dtype=float))
        passes = [PassSpec("charges") for _ in range(3)] + [
            PassSpec("dipoles") for _ in range(4)
        ]
        sess = self._ensure_session(
            tree, lists, expansion, kernel, passes,
            near_potential=True, near_gradient=False,
            near_strength_cols=3, value_dim=kernel.value_dim,
        )
        v = sess.arena.views
        pts = tree.points
        for i in range(3):
            v[f"q{i}"][:] = f[:, i]
        v["dip3"][:] = f
        for k in range(3):
            v[f"dip{4 + k}"][:] = pts[:, k, None] * f
        v["nearq"][:] = f
        self._run(sess, tree)
        phis = [v[f"fpot{i}"].copy() for i in range(3)]
        A = v["fpot3"].copy()
        Bs = [v[f"fpot{4 + k}"].copy() for k in range(3)]
        u_near = v["near_pot"].copy()
        return phis, A, Bs, u_near
