"""Fair multi-tenant scheduling and cost-model admission control.

Two cooperating pieces:

:class:`CostModelGovernor` prices a request *before* running it, as
seconds per body learned from the walls of served solves times the
request's ``n``, so the estimate tracks the machine it is
actually running on.

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
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.serve.protocol import ServeError, SolveSpec

__all__ = ["CostModelGovernor", "FairScheduler", "Job"]

#: seconds per body before any solve has been served: a 27-neighbour near
#: field of 32-body leaves at 2e-7 s a pair — optimistic, so a cold server
#: admits work and learns its real rate from it
_PRIOR_S_PER_BODY = 27 * 32 * 2e-7

#: weight of a new served solve in the governor's rates; served wall
#: times are noisy, so each observation moves a rate 30% of the way
_SMOOTHING = 0.3


def _ewma(old: float | None, new: float) -> float:
    return new if old is None else _SMOOTHING * new + (1 - _SMOOTHING) * old


class CostModelGovernor:
    """Prices a request at learned seconds per body times its ``n``.

    The server times a request's whole wall, not its operations, so the
    §IV-D per-operation coefficients (time on an op over its
    applications) cannot be observed here; what the walls do tell is one
    rate, seconds per body.  The governor keeps it as an EWMA
    per kernel and one server-wide: a request is priced at its kernel's
    rate once that kernel has been served, before that at the
    server-wide rate, and before any solve at a prior.

    Thread-safe: ``predict`` runs on the asyncio loop thread while
    ``observe`` runs on the solver threads as solves finish.
    """

    def __init__(self) -> None:
        self._rate: float | None = None
        self._by_kernel: dict[str, float] = {}
        self._observed = 0
        self._lock = threading.Lock()

    def predict(self, spec: SolveSpec) -> float:
        """Predicted wall (seconds) of one request."""
        with self._lock:
            rate = self._by_kernel.get(spec.kernel, self._rate)
        return (_PRIOR_S_PER_BODY if rate is None else rate) * spec.n

    def observe(self, spec: SolveSpec, wall_s: float) -> None:
        """Fold one served solve's wall into its kernel's rate and the
        server-wide one."""
        if wall_s <= 0:
            return
        rate = wall_s / spec.n
        with self._lock:
            self._rate = _ewma(self._rate, rate)
            self._by_kernel[spec.kernel] = _ewma(self._by_kernel.get(spec.kernel), rate)
            self._observed += 1

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "observed": self._observed,
                "s_per_body": self._rate,
                "by_kernel": dict(self._by_kernel),
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
