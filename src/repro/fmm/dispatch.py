"""The one solve dispatcher shared by every FMM solver.

A solve is *one far-field pass* — ``charges`` of ``k`` channels, ``(n,)``
for Laplace, ``(n, 4)`` for the composite Stokeslet — *plus one near
field*.  :class:`PassListSolver` owns everything about running that pair
that does not depend on which kernel it serves:

* **dispatch** — both declare their stage DAG once
  (:meth:`FarFieldPass.add_tasks <repro.fmm.farfield.FarFieldPass.add_tasks>`,
  :meth:`NearFieldPass.add_tasks <repro.fmm.nearfield.NearFieldPass.add_tasks>`).
  No engine: the serial sweeps walk each declaration in order; a thread
  :class:`~repro.runtime.engine.ExecutionEngine`: both as one task graph;
  a :class:`~repro.runtime.shards.ProcessEngine`: one sharded session;
* **the degrade ladder** — an unrecoverable graph or shard failure
  discards the partial run and re-executes the solve on the exact serial
  path (``degraded_runs``, ``runtime_degraded_total{solver=…}``);
* **the deadline** — one :class:`~repro.util.timing.Deadline` per solve,
  checked here after the list fetch and by whichever back end runs at its
  stage boundaries; :class:`~repro.util.timing.SolveDeadlineError` is not
  an execution error, so it passes the ladder untouched;
* **the bookkeeping** — ``last_engine_result`` / ``last_shard_result`` of
  the run that produced the answer, cleared when that run was discarded.

Every back end returns bitwise what the serial sweep returns
(DESIGN.md §9/§10/§14), so solvers are "build charges → dispatch →
combine" and never see which one ran.
"""

from __future__ import annotations

from repro.expansions.cartesian import CartesianExpansion
from repro.fmm.farfield import FarFieldPass
from repro.fmm.nearfield import NearFieldPass
from repro.obs import NULL_TELEMETRY, Telemetry
from repro.tree.cache import ListCache

__all__ = ["PassListSolver"]


class PassListSolver:
    """Constructor state, dispatch and degrade ladder of an FMM solver.

    Subclasses set :attr:`solver_label` and implement the two serial
    sweeps, :meth:`_far_field` and :meth:`_near_field`, as calls through
    *their own module's* ``laplace_far_field`` / ``evaluate_near_field``
    globals — profilers (``benchmarks/step_budget``) wrap those names per
    solver module.
    """

    #: the ``solver`` label of ``runtime_degraded_total``
    solver_label = ""

    def __init__(
        self,
        kernel,
        *,
        order: int = 4,
        expansion=None,
        list_cache: ListCache | None = None,
        telemetry: Telemetry | None = None,
        engine=None,
    ) -> None:
        self.kernel = kernel
        self.expansion = expansion if expansion is not None else CartesianExpansion(order)
        self.order = self.expansion.order
        #: interaction lists are memoized per tree shape, so repeated solves
        #: on a frozen-shape tree (the time-stepping loop) skip list builds;
        #: pass a shared cache to pool entries with an executor/balancer
        self.list_cache = list_cache if list_cache is not None else ListCache()
        #: per-op far-field spans go here (no-op bundle by default)
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        #: :class:`repro.runtime.engine.ExecutionEngine` (solves run as one
        #: concurrent task graph), :class:`repro.runtime.shards.ProcessEngine`
        #: (sharded worker processes) or ``None`` (serial)
        self.engine = engine
        #: :class:`repro.runtime.engine.EngineResult` of the last engine solve
        self.last_engine_result = None
        #: :class:`repro.runtime.shards.ShardRunResult` of the last sharded solve
        self.last_shard_result = None
        #: engine failures absorbed by the serial fallback (DESIGN.md §11)
        self.degraded_runs = 0

    # ---------------------------------------------------------- serial sweeps
    def _far_field(self, tree, lists, **source):
        raise NotImplementedError

    def _near_field(self, tree, lists, q, **flags):
        raise NotImplementedError

    # --------------------------------------------------------------- dispatch
    def _solve_passes(self, tree, lists, charges, far, near_q, near, deadline=None):
        """Run the far field of ``charges`` and the near field of ``near_q``
        on the back end.

        ``far`` / ``near`` are each pass's ``potential`` / ``gradient``
        flags; ``deadline`` is the solve's
        :class:`~repro.util.timing.Deadline` (``None`` = unbounded).
        Callers validate their inputs *before* this call: nothing here —
        not even the list fetch for ``lists=None`` — runs on malformed
        input.  Returns ``(lists, (far_pot, far_grad), near_pot,
        near_grad)``, the far pair shaped as
        :meth:`FarFieldPass.result <repro.fmm.farfield.FarFieldPass.result>`.
        """
        # imported here: repro.fmm / repro.runtime package inits would cycle
        from repro.runtime.engine import GraphExecutionError, solve_in_flight
        from repro.runtime.shards import ProcessEngine, ShardExecutionError

        # set again only by the run that produces this solve's answer: a
        # failed or expired run is discarded whole
        self.last_engine_result = self.last_shard_result = None
        with solve_in_flight():
            if lists is None:
                lists = self.list_cache.get(tree)
            if deadline is not None:
                deadline.check("lists")
            args = (tree, lists, charges, far, near_q, near, deadline)
            engine = self.engine
            if engine is None:
                return (lists, *self._run_serial(*args))
            try:
                if isinstance(engine, ProcessEngine):
                    out = self._run_shards(*args)
                    self.last_shard_result = engine.last_result
                else:
                    out = self._run_graph(*args)
            except (GraphExecutionError, ShardExecutionError) as exc:
                self._record_degraded(exc)
                out = self._run_serial(*args)
            return (lists, *out)

    def _run_serial(self, tree, lists, charges, far, near_q, near, deadline):
        """The exact serial sweeps (and the fallback path).

        Every sweep opens with a deadline check, so the far and the near
        field are separated by one.
        """
        return (
            self._far_field(tree, lists, charges=charges, deadline=deadline, **far),
            *self._near_field(tree, lists, near_q, deadline=deadline, **near),
        )

    def _run_shards(self, tree, lists, charges, far, near_q, near, deadline):
        """One session on the sharded multi-process backend."""
        far_pot, far_grad, *near_out = self.engine.solve(
            tree, lists, self.expansion, self.kernel, charges, near_q,
            far=far, deadline=deadline, **near,
        )
        return ((far_pot, far_grad), *near_out)

    def _run_graph(self, tree, lists, charges, far, near_q, near, deadline):
        """The far field + the near field as one task graph on the engine.

        Both own private coefficient/output arrays, so the two subgraphs
        are independent and interleave freely.  They are the ones the
        serial sweeps walk in order (:meth:`FarFieldPass.add_tasks`,
        :meth:`NearFieldPass.add_tasks`), so their merge chains replay every
        reduction in the serial order.
        """
        from repro.runtime.engine import TaskGraphBuilder

        far_pass = FarFieldPass(tree, lists, self.expansion, charges=charges, **far)
        near_pass = NearFieldPass(self.kernel, tree, lists, near_q, **near)
        g = TaskGraphBuilder()
        far_pass.add_tasks(g)
        near_pass.add_tasks(g, n_chunks=4 * self.engine.n_workers)
        self.last_engine_result = self.engine.run(g, deadline=deadline)
        return (far_pass.result(), *near_pass.result())

    def _record_degraded(self, exc: BaseException) -> None:
        """Count one engine failure recovered by serial re-execution."""
        self.degraded_runs += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "runtime_degraded_total",
                "engine graph failures recovered by exact serial re-execution",
                labels={"solver": self.solver_label},
            ).inc()
            self.telemetry.tracer.instant(
                "runtime-degraded", solver=self.solver_label, error=repr(exc)
            )
