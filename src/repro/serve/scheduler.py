"""Fair multi-tenant scheduling and cost-model admission control.

Two cooperating pieces:

:class:`CostModelGovernor` prices a request *before* running it, using
the paper's §IV-D prediction (``predict_times`` over per-operation
counts and observed coefficients).  Counts come from an analytic
uniform-tree surrogate — the server must price work it has not built a
tree for — and coefficients are re-observed from every served solve, so
the estimate tracks the machine it is actually running on.

:class:`FairScheduler` holds one FIFO deque per tenant and starts jobs
round-robin across tenants on ``pool_size`` solver threads, one thread per
pool slot — so a tenant streaming hundreds of requests cannot starve a
tenant sending one, and ``pool_size`` solves run at once.  (One thread
used to serve every slot: a solve was then ~4 000 interpreter-bound NumPy
calls, and a second solving thread halved throughput.  The near field and
the far field's leaf stages are now compiled calls that drop the
interpreter lock and M2L is BLAS, so two solves overlap.)  Every object a
solver thread writes is guarded or per-request (DESIGN.md §15).

Admission control happens at submit time, on the asyncio loop, before
anything is queued:

* a new tenant beyond ``max_tenants`` -> 429 ``tenant-limit``;
* predicted drain time past ``shed_budget_s`` -> 429 ``shed`` with the
  prediction in the error details, so clients can back off intelligently
  instead of guessing.  Drain time is the predicted seconds of queued +
  in-flight + new work over ``pool_size``: the governor learns walls
  measured while ``pool_size`` solves share the cores, so the backlog
  drains ``pool_size`` jobs at a time.

Requests carry per-request deadlines end to end: a job that exhausts its
deadline while still queued fails fast with a structured 408 (never
dispatched), and a dispatched job hands the budget it has left *when a
solver thread picks it up* to the solve as one
:class:`~repro.util.timing.Deadline`, checked on entry (phase ``queue``)
and from the tree build to the last stage of the sweep; its expiry also
surfaces as 408 naming the phase — without poisoning the solver, because
each request runs on fresh solver state and only the operators are shared.
"""

from __future__ import annotations

import asyncio
import math
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import predict_times
from repro.kernels.base import EXPANSION_OPS
from repro.kernels.stokeslet_fmm import stokeslet_op_counts
from repro.serve.protocol import ServeError, SolveSpec
from repro.util.timing import TimerRegistry

__all__ = ["CostModelGovernor", "FairScheduler", "Job", "estimate_op_counts"]

#: optimistic per-application prior (seconds) used before any solve has
#: been observed — deliberately low so a cold server admits work and
#: learns real coefficients from it
_PRIOR_COEFF_S = 2e-7

#: weight of a new served solve in the governor's coefficients; served
#: wall times are noisy, so each observation moves the estimate 30% of
#: the way
_SMOOTHING = 0.3


#: leaf capacity of the uniform octree :func:`estimate_op_counts` models
_SURROGATE_LEAF = 32


def estimate_op_counts(n: int, order: int) -> dict[str, int]:
    """Analytic op counts for a uniform octree over ``n`` bodies.

    These price the *size of a request* for admission, not the tree it is
    served on: a one-shot request chooses its own leaf capacity from a
    census of its bodies when it runs
    (:func:`repro.costmodel.leafsize.choose_leaf_size`), after admission.
    The model is the uniform-refinement limit: leaves of ~32 bodies, one
    M2M/L2L application per parent-child shift, ~27 V-list partners per
    node under the folded scheme, and a 27-neighbour dense near field.
    The governor's feedback loop (observed seconds / estimated counts)
    absorbs the constant-factor error, and ``order`` enters through the
    observed per-application coefficients rather than the counts.
    """
    n = max(1, int(n))
    depth = max(0, math.ceil(math.log(max(1.0, n / _SURROGATE_LEAF), 8)))
    n_leaves = 8**depth
    n_internal = (n_leaves - 1) // 7
    n_nodes = n_leaves + n_internal
    n_shifts = 8 * n_internal
    return {
        "P2M": n,
        "M2M": n_shifts,
        "M2L": 27 * n_nodes,
        "L2L": n_shifts,
        "L2P": n,
        "M2P": 0,  # folded scheme: W/X work is folded into M2L/P2P
        "P2L": 0,
        "P2P": 27 * n * min(n, _SURROGATE_LEAF),
    }


def _solve_counts(spec: SolveSpec) -> tuple[dict[str, int], int]:
    """``(counts, steps)``: one solve's surrogate op counts — a Stokeslet
    request's as its solver reports them — and how many solves it runs."""
    counts = estimate_op_counts(spec.n, spec.order)
    if spec.kernel == "stokeslet":
        counts = stokeslet_op_counts(counts)
    return counts, max(1, int(spec.steps))


class CostModelGovernor:
    """Prices requests with §IV-D and re-observes coefficients per solve.

    Thread-safe: ``predict`` runs on the asyncio loop thread while
    ``observe`` runs on the solver threads as solves finish.
    """

    def __init__(self) -> None:
        self.coeffs = ObservedCoefficients(smoothing=_SMOOTHING)
        #: one store per kernel as well: the surrogate counts a Stokeslet
        #: pair like a Laplace pair, so only a kernel's own solves tell
        #: what its requests cost
        self._by_kernel: dict[str, ObservedCoefficients] = {}
        self._lock = threading.Lock()

    def predict(self, spec: SolveSpec) -> float:
        """Predicted ComputeTime (seconds) for one request: from its
        kernel's observed coefficients, else from every served solve's."""
        counts, steps = _solve_counts(spec)
        with self._lock:
            coeffs = self._by_kernel.get(spec.kernel, self.coeffs)
            if not coeffs.ready:
                total = sum(counts.values())
                return total * _PRIOR_COEFF_S * steps
            t = predict_times(counts, coeffs)
        return t.compute_time * steps

    def observe(self, spec: SolveSpec, wall_s: float) -> None:
        """Fold one served solve's measured wall time into the server-wide
        store and its kernel's.

        The server has no per-op timers for a whole request, so the wall
        time is attributed uniformly per application across the surrogate
        counts; what matters is that predicted seconds for a repeat of
        the same request converge on observed seconds.
        """
        if wall_s <= 0:
            return
        counts, steps = _solve_counts(spec)
        total = float(sum(counts.values())) * steps
        if total <= 0:
            return
        per_app = wall_s / total
        registry = TimerRegistry()
        for op in EXPANSION_OPS:
            apps = int(counts[op] * steps)
            if apps:
                registry.add(op, per_app * apps, apps)
        with self._lock:
            own = self._by_kernel.setdefault(
                spec.kernel, ObservedCoefficients(smoothing=_SMOOTHING)
            )
            for coeffs in (self.coeffs, own):
                coeffs.update_from_registry(registry, per_app)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "ready": self.coeffs.ready,
                "steps_observed": self.coeffs.steps_observed,
                "coefficients": self.coeffs.as_dict(),
            }


@dataclass
class Job:
    """One admitted solve request, queued or in flight.

    The loop writes every field before the job reaches a solver thread,
    except ``started_at``, which that thread stamps; the thread reads the
    rest and never the scheduler's queues.
    """

    tenant: str
    spec: SolveSpec
    predicted_s: float
    future: asyncio.Future
    #: the protocol request's ``id``, as the client numbered it
    request_id: Any = None
    #: the server's admission sequence number (from 1): the ledger's join
    #: key, unique across clients, where two solver threads finish out of
    #: order and every client numbers its requests from 1
    job_id: int = 0
    enqueued_at: float = field(default_factory=time.monotonic)
    started_at: float | None = None
    #: the queue as the job left it, snapshot on the loop at dispatch
    queue_depth: int = 0
    active_tenants: int = 0

    def remaining_deadline(self) -> float | None:
        """Deadline budget left after queue wait (``None`` = no deadline)."""
        if self.spec.deadline_s is None:
            return None
        return self.spec.deadline_s - (time.monotonic() - self.enqueued_at)


class FairScheduler:
    """Round-robin tenant queues feeding ``pool_size`` solver threads.

    ``run_job(job) -> result`` is supplied by the server and executes on a
    solver thread, up to ``pool_size`` jobs at once.  A job leaves its
    queue only when a thread is free to start it, so jobs start in
    round-robin order.  Everything else here runs on the asyncio loop, so
    the queue structures need no locks: nothing on a solver thread reads
    them (what it needs of them is snapshot on the :class:`Job`).
    """

    def __init__(
        self,
        run_job: Callable[[Job], Any],
        *,
        pool_size: int = 2,
        max_tenants: int = 8,
        shed_budget_s: float = 60.0,
    ) -> None:
        if pool_size < 1:
            raise ValueError(f"pool_size must be >= 1, got {pool_size}")
        if max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {max_tenants}")
        if shed_budget_s <= 0:
            raise ValueError(f"shed_budget_s must be positive, got {shed_budget_s}")
        self._run_job = run_job
        self.pool_size = pool_size
        self.max_tenants = max_tenants
        self.shed_budget_s = shed_budget_s
        self.governor = CostModelGovernor()

        # tenant -> FIFO of queued jobs; OrderedDict gives stable
        # round-robin order (insertion order of first appearance)
        self._queues: OrderedDict[str, deque[Job]] = OrderedDict()
        self._inflight: dict[str, int] = {}  # tenant -> dispatched job count
        self._queued_cost_s = 0.0  # predicted seconds queued + in flight
        self._admitted = 0  # job_id of the last admitted job
        self._wakeup: asyncio.Event | None = None
        self._closed = False
        self._dispatcher: asyncio.Task | None = None
        self._run_tasks: set[asyncio.Task] = set()
        # one thread per slot: a dispatched job starts at once
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix="repro-serve"
        )
        self._slots: asyncio.Semaphore | None = None

        # counters surfaced by status/metrics
        self.served_total = 0
        self.failed_total = 0
        self.shed_total = 0
        self.deadline_total = 0

    # ---------------------------------------------------------------- state
    def queue_depth(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def active_tenants(self) -> int:
        tenants = set(self._inflight)
        tenants.update(t for t, q in self._queues.items() if q)
        return len(tenants)

    def inflight_total(self) -> int:
        """Jobs handed to the solver threads and not yet answered (all
        tenants), at most ``pool_size``."""
        return sum(self._inflight.values())

    def queued_cost_s(self) -> float:
        return self._queued_cost_s

    # --------------------------------------------------------------- submit
    def submit(
        self, tenant: str, spec: SolveSpec, request_id: Any = None
    ) -> asyncio.Future:
        """Admit one request or raise a structured :class:`ServeError`.

        Must be called on the scheduler's asyncio loop.
        """
        if self._closed:
            raise ServeError(503, "shutdown", "server is shutting down")
        loop = asyncio.get_running_loop()
        if self._wakeup is None:
            self._wakeup = asyncio.Event()
            self._slots = asyncio.Semaphore(self.pool_size)
            self._dispatcher = loop.create_task(self._dispatch_loop())

        is_new_tenant = tenant not in self._queues and tenant not in self._inflight
        if is_new_tenant and self.active_tenants() >= self.max_tenants:
            raise ServeError(
                429,
                "tenant-limit",
                f"server already tracks {self.max_tenants} active tenants",
                details={"max_tenants": self.max_tenants},
            )
        predicted = self.governor.predict(spec)
        drain_s = (self._queued_cost_s + predicted) / self.pool_size
        if drain_s > self.shed_budget_s:
            self.shed_total += 1
            raise ServeError(
                429,
                "shed",
                "predicted drain time exceeds the admission budget — retry later",
                details={
                    "predicted_s": predicted,
                    "queued_s": self._queued_cost_s,
                    "pool_size": self.pool_size,
                    "budget_s": self.shed_budget_s,
                },
            )

        self._admitted += 1
        job = Job(tenant=tenant, spec=spec, predicted_s=predicted,
                  future=loop.create_future(), request_id=request_id,
                  job_id=self._admitted)
        self._queues.setdefault(tenant, deque()).append(job)
        self._queued_cost_s += predicted
        self._wakeup.set()
        return job.future

    # ------------------------------------------------------------- dispatch
    def _next_job(self) -> Job | None:
        """Pop one job, round-robin across tenants with queued work."""
        for tenant in list(self._queues):
            q = self._queues[tenant]
            if not q:
                del self._queues[tenant]
                continue
            job = q.popleft()
            # rotate: this tenant goes to the back of the scan order
            self._queues.move_to_end(tenant)
            if not q:
                del self._queues[tenant]
            return job
        return None

    async def _dispatch_loop(self) -> None:
        assert self._wakeup is not None and self._slots is not None
        while not self._closed:
            # slot first: a job leaves its queue only with a slot to run in,
            # so close() — which cancels this task — finds it in one or the other
            await self._slots.acquire()
            while (job := self._next_job()) is None:
                self._wakeup.clear()
                await self._wakeup.wait()
            task = asyncio.get_running_loop().create_task(self._run_one(job))
            self._run_tasks.add(task)
            task.add_done_callback(self._run_tasks.discard)

    def _solve(self, job: Job) -> Any:
        """On a solver thread: stamp the real start, run, and teach the
        governor the solve's wall — not the job's wait in its queue."""
        job.started_at = time.monotonic()
        result = self._run_job(job)
        self.governor.observe(job.spec, time.monotonic() - job.started_at)
        return result

    async def _run_one(self, job: Job) -> None:
        assert self._slots is not None
        loop = asyncio.get_running_loop()
        try:
            remaining = job.remaining_deadline()
            if remaining is not None and remaining <= 0:
                raise ServeError(  # counted once, by the handler below
                    408,
                    "deadline",
                    "request deadline expired while queued",
                    details={
                        "deadline_s": job.spec.deadline_s,
                        "queued_s": time.monotonic() - job.enqueued_at,
                    },
                )
            self._inflight[job.tenant] = self._inflight.get(job.tenant, 0) + 1
            job.queue_depth = self.queue_depth()
            job.active_tenants = self.active_tenants()
            try:
                result = await loop.run_in_executor(
                    self._executor, self._solve, job
                )
            finally:
                left = self._inflight.get(job.tenant, 1) - 1
                if left > 0:
                    self._inflight[job.tenant] = left
                else:
                    self._inflight.pop(job.tenant, None)
            self.served_total += 1
            if not job.future.done():
                job.future.set_result(result)
        except ServeError as exc:
            if exc.kind == "deadline":
                self.deadline_total += 1
            self.failed_total += 1
            if not job.future.done():
                job.future.set_exception(exc)
        except BaseException as exc:  # noqa: BLE001 — wrap as structured 500
            self.failed_total += 1
            if not job.future.done():
                job.future.set_exception(
                    ServeError(500, "internal", f"{type(exc).__name__}: {exc}")
                )
        finally:
            self._queued_cost_s = max(0.0, self._queued_cost_s - job.predicted_s)
            self._slots.release()

    # ---------------------------------------------------------------- close
    async def close(self) -> None:
        """Reject queued work with 503, wait out in-flight solves, stop."""
        self._closed = True
        while (job := self._next_job()) is not None:
            self._queued_cost_s = max(0.0, self._queued_cost_s - job.predicted_s)
            if not job.future.done():
                job.future.set_exception(
                    ServeError(503, "shutdown", "server is shutting down")
                )
        if self._wakeup is not None:
            self._wakeup.set()  # let the dispatcher observe _closed and exit
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            try:
                await self._dispatcher
            except asyncio.CancelledError:
                pass
        if self._run_tasks:
            await asyncio.gather(*list(self._run_tasks), return_exceptions=True)
        self._executor.shutdown(wait=True)
