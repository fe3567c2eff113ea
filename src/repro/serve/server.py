"""The asyncio job server: ``python -m repro serve``.

One process hosts ``pool_size`` solver threads, one per pool slot, behind
a JSON-lines TCP front end (plus an in-process path for tests).  Incoming
``solve`` requests are admitted by the cost-model governor,
queued per tenant, and started round-robin on the first free thread; the
solves overlap because their heavy stages (near field, leaf stages, M2L's
BLAS) drop the interpreter lock, and the asyncio loop keeps framing and
the codec off the solver threads — each request on fresh solver state,
all requests reading their
translation operators from one process-wide
:class:`~repro.expansions.operators.OperatorStore` (one immutable set per
``(backend, order, domain_size)``), which is what makes a warm solve
cheaper than a cold one while keeping results *bitwise identical* to a
direct solver run (:func:`solve_direct`; sharing changes where operators
come from, never their values).  A request is one field solve.

Observability: the ``status`` verb is the one health surface (queue
depth, active tenants, queued cost, request / shed / deadline / drain
totals, operator-store stats), and with ``--ledger`` every served solve
appends one flight-recorder :class:`~repro.obs.ledger.RunRecord` (its
``wall_s`` and ``queue_wait_s``, plus an ``extra.serve`` block keyed by
the server's ``job_id``, beside the tenant and protocol request id).  A
served request keeps nothing once answered: solves run on a disabled
:class:`~repro.obs.Telemetry`.
"""

from __future__ import annotations

import asyncio
import math
import signal
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.costmodel.leafsize import choose_leaf_size
from repro.expansions.operators import OperatorStore
from repro.obs import Telemetry
from repro.serve.protocol import (
    FrameTooLargeError,
    ProtocolError,
    ServeError,
    SolveSpec,
    parse_request,
    read_message,
    write_message,
)
from repro.serve.scheduler import FairScheduler, Job
from repro.util.timing import Deadline, SolveDeadlineError

__all__ = ["JobServer", "ServeConfig", "main", "solve_direct"]


@dataclass(frozen=True)
class ServeConfig:
    """Server configuration (the ``python -m repro serve`` flags)."""

    host: str = "127.0.0.1"
    #: 0 = let the OS pick a free port (reported after bind)
    port: int = 0
    #: solves running at once: one solver thread per pool slot
    pool_size: int = 2
    #: distinct tenants with queued or running work
    max_tenants: int = 8
    #: admission budget: predicted drain time, i.e. predicted seconds of
    #: queued + in-flight + new work over ``pool_size``
    shed_budget_s: float = 60.0
    #: flight-recorder target ("auto" = default RUNS.jsonl, None = off)
    ledger_path: str | None = None
    #: largest accepted request frame; longer lines get a structured 400
    max_frame_bytes: int = 32 << 20

    def __post_init__(self) -> None:
        if not 0 <= int(self.port) <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if int(self.pool_size) < 1:
            raise ValueError(f"pool_size must be >= 1, got {self.pool_size}")
        if int(self.max_tenants) < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")
        if not 0 < float(self.shed_budget_s) < math.inf:
            raise ValueError(
                f"shed_budget_s must be positive, finite seconds, got {self.shed_budget_s}"
            )
        if int(self.max_frame_bytes) < 1024:
            raise ValueError(
                f"max_frame_bytes must be >= 1024, got {self.max_frame_bytes}"
            )


# ------------------------------------------------------------------ workload

def _build_particles(spec: SolveSpec):
    """Canonical workload for a spec: compact Plummer in a centred cube.

    Both the served path and the direct baseline build from here, so
    identity of results reduces to identity of the solve itself.
    """
    from repro.distributions.generators import compact_plummer
    from repro.geometry.box import Box

    particles = compact_plummer(
        spec.n, seed=spec.seed, total_mass=1.0, domain_size=spec.domain_size
    )
    domain = Box((0.0, 0.0, 0.0), float(spec.domain_size))
    return particles, domain


def _expansion(spec: SolveSpec):
    if spec.backend == "spherical":
        from repro.expansions.spherical import SphericalExpansion

        return SphericalExpansion(spec.order)
    from repro.expansions.cartesian import CartesianExpansion

    return CartesianExpansion(spec.order)


def _solve_core(
    spec: SolveSpec,
    *,
    operators: OperatorStore | None = None,
    deadline_s: float | None = None,
    telemetry: Telemetry | None = None,
) -> dict[str, Any]:
    """Execute one spec and return its result dict.

    This single function IS both the served path (the server's
    ``operators`` store, remaining ``deadline_s`` threaded through) and the
    direct baseline (a store of its own, no deadline): the two differ only
    in where translation operators come from, which is bitwise-neutral.

    The budget's clock starts here, on entry: tree build, lists, operator
    geometry and the sweep all spend from one
    :class:`~repro.util.timing.Deadline`.  Raises :class:`ServeError` 408
    naming the phase that noticed the expiry.  ``telemetry`` is the
    solver's bundle (``None``: the solvers' disabled default).
    """
    spec.validate()
    deadline = None if deadline_s is None else Deadline(deadline_s)
    try:
        if deadline is not None:
            deadline.check("queue")
        return _run_solve(spec, operators, deadline, telemetry)
    except SolveDeadlineError as exc:
        raise ServeError(
            408,
            "deadline",
            f"request deadline of {spec.deadline_s}s expired during {exc.phase}",
            details={"deadline_s": spec.deadline_s, "phase": exc.phase},
        ) from exc


def _run_solve(spec, operators, deadline, telemetry):
    """The field solve: the serial sweep, on a tree
    whose leaf capacity S the frozen cost model picks from a census of the
    request's bodies (:func:`repro.costmodel.leafsize.choose_leaf_size`) —
    a pure function of the spec, so a direct solve picks the same S.  The
    reply names it (``"S"``)."""
    from repro.kernels.laplace import GravityKernel
    from repro.tree.cache import ListCache
    from repro.tree.octree import AdaptiveOctree

    particles, domain = _build_particles(spec)
    S = choose_leaf_size(particles.positions, domain, spec.order, spec.kernel)
    tree = AdaptiveOctree(particles.positions, S, root_box=domain)
    if deadline is not None:
        deadline.check("tree")
    common = dict(
        expansion=_expansion(spec), list_cache=ListCache(operators=operators),
        telemetry=telemetry, engine=None,
    )
    if spec.kernel == "stokeslet":
        from repro.kernels.stokeslet_fmm import StokesletFMMSolver

        forces = np.random.default_rng(spec.seed).standard_normal((spec.n, 3))
        res = StokesletFMMSolver(**common).solve(tree, forces, deadline=deadline)
        return {
            "kernel": spec.kernel,
            "S": S,
            "velocity": res.velocity,
            "op_counts": res.op_counts,
        }
    from repro.fmm.evaluator import FMMSolver

    res = FMMSolver(GravityKernel(G=1.0, softening=1e-3), **common).solve(
        tree, particles.strengths, gradient=True, deadline=deadline
    )
    return {
        "kernel": spec.kernel,
        "S": S,
        "potential": res.potential,
        "gradient": res.gradient,
        "op_counts": res.op_counts,
    }


def solve_direct(spec: SolveSpec | dict) -> dict[str, Any]:
    """The direct (no-server) baseline for one spec.

    Tests and the warm-vs-cold benchmark compare served results against
    this bitwise (``np.array_equal``): same workload builder, same solve
    path, no shared operator store, no deadline.
    """
    if isinstance(spec, dict):
        spec = SolveSpec.from_dict(spec)
    return _solve_core(spec)


# ------------------------------------------------------------- frame reading


class _FrameReader:
    """Bounded newline-frame reader over an asyncio stream.

    ``StreamReader.readline()`` buffers an arbitrarily long line, so a
    client that never sends a newline can grow the server's memory
    without limit.  This reader caps the in-flight frame at
    ``max_frame_bytes``; on overflow it *drains* the rest of the
    oversized line (in bounded chunks, keeping nothing) and raises
    :class:`FrameTooLargeError`, leaving the stream positioned at the
    next frame — the connection survives the bad frame.
    """

    _CHUNK = 65536

    def __init__(self, reader: asyncio.StreamReader, max_frame_bytes: int) -> None:
        self._reader = reader
        self._max = int(max_frame_bytes)
        self._buf = bytearray()
        self._eof = False

    async def read_frame(self) -> bytes | None:
        """Next newline-terminated frame; ``None`` at EOF.

        Raises :class:`FrameTooLargeError` for frames past the cap.  A
        truncated final frame (data then EOF, no newline) is returned
        as-is and left for the JSON parser to reject.
        """
        while True:
            nl = self._buf.find(b"\n")
            if nl != -1:
                frame = bytes(self._buf[: nl + 1])
                del self._buf[: nl + 1]
                return frame
            if len(self._buf) > self._max:
                seen = await self._drain_oversized_line()
                raise FrameTooLargeError(seen, self._max)
            if self._eof:
                if self._buf:
                    frame = bytes(self._buf)
                    self._buf.clear()
                    return frame
                return None
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
            else:
                self._buf.extend(chunk)

    async def _drain_oversized_line(self) -> int:
        """Discard through the offending newline; return bytes seen."""
        seen = len(self._buf)
        self._buf.clear()
        while True:
            chunk = await self._reader.read(self._CHUNK)
            if not chunk:
                self._eof = True
                return seen
            nl = chunk.find(b"\n")
            if nl != -1:
                self._buf.extend(chunk[nl + 1 :])
                return seen + nl + 1
            seen += len(chunk)


# ----------------------------------------------------------------- the server


class JobServer:
    """Multi-tenant asyncio front end over ``pool_size`` solver threads."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        #: the served solves' bundle: disabled, so a request records
        #: nothing; a profiler may swap in its own tracer before requests
        #: arrive (solves read it while they run, so it must take spans
        #: from several threads at once, as :class:`~repro.obs.Tracer` does)
        self.telemetry = Telemetry(enabled=False)
        #: every request's translation operators, once per process
        self.operators = OperatorStore()
        self.scheduler = FairScheduler(
            self._execute,
            pool_size=self.config.pool_size,
            max_tenants=self.config.max_tenants,
            shed_budget_s=self.config.shed_budget_s,
        )
        self._server: asyncio.base_events.Server | None = None
        self._started = time.monotonic()
        self.requests_total = 0
        self._draining = False
        self.drains_total = 0

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        """Bind the TCP listener (skip for purely in-process use)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, 503 the queue, finish in-flight.

        Idempotent.  New non-``status`` requests answer 503
        ``"draining"`` from the moment the flag flips; already-running
        solves complete and their responses are written; queued jobs are
        failed with structured 503s by the scheduler.
        """
        if not self._draining:
            self._draining = True
            self.drains_total += 1
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.scheduler.close()

    async def aclose(self) -> None:
        """Stop accepting, shed the queue with 503s, drain in-flight."""
        await self.drain()

    # ------------------------------------------------------------- requests
    async def handle_request(self, payload: dict) -> dict:
        """Process one protocol request dict -> one response dict.

        The single entry point shared by the TCP handler and the
        in-process :class:`~repro.serve.client.ServeClient`.
        """
        rid = payload.get("id") if isinstance(payload, dict) else None
        try:
            rid, kind, tenant, spec = parse_request(payload)
            self.requests_total += 1
            if kind == "status":
                return {"id": rid, "ok": True, "result": self.status()}
            if self._draining:
                # health stays readable during a drain; work does not
                raise ServeError(
                    503,
                    "draining",
                    "server is draining: in-flight work is finishing, "
                    "no new work is accepted",
                    details={"drains_total": self.drains_total},
                )
            result = await self.scheduler.submit(tenant, spec, request_id=rid)
            return {"id": rid, "ok": True, "result": result}
        except ServeError as exc:
            return {"id": rid, "ok": False, "error": exc.to_dict()}
        except Exception as exc:  # noqa: BLE001 — never kill the connection
            return {
                "id": rid,
                "ok": False,
                "error": ServeError(
                    500, "internal", f"{type(exc).__name__}: {exc}"
                ).to_dict(),
            }

    def status(self) -> dict[str, Any]:
        sched = self.scheduler
        return {
            "uptime_s": time.monotonic() - self._started,
            "state": "draining" if self._draining else "serving",
            "draining": self._draining,
            "drains_total": self.drains_total,
            "pool_size": sched.pool_size,
            "inflight": sched.inflight_total(),
            "queue_depth": sched.queue_depth(),
            "active_tenants": sched.active_tenants(),
            "queued_cost_s": sched.queued_cost_s(),
            "shed_budget_s": sched.shed_budget_s,
            "requests_total": self.requests_total,
            "served_total": sched.served_total,
            "failed_total": sched.failed_total,
            "shed_total": sched.shed_total,
            "deadline_total": sched.deadline_total,
            "opcache": self.operators.stats(),
            "governor": sched.governor.snapshot(),
        }

    # ------------------------------------------------------------ execution
    def _execute(self, job: Job) -> dict[str, Any]:
        """Run one admitted job on a solver thread, which stamped
        ``job.started_at`` as it picked the job up: queue wait and the
        remaining deadline are measured to that moment, the wall from it.
        It reads the job and the locked stores, never the scheduler's
        queues."""
        queue_wait = job.started_at - job.enqueued_at
        result = _solve_core(
            job.spec,
            operators=self.operators,
            deadline_s=job.remaining_deadline(),
            telemetry=self.telemetry,
        )
        wall = time.monotonic() - job.started_at
        self._ledger_record(job, wall, queue_wait, result["S"])
        return result

    def _ledger_record(
        self, job: Job, wall: float, queue_wait: float, leaf_size: int
    ) -> None:
        if self.config.ledger_path is None:
            return
        try:
            from repro.obs.ledger import RunLedger, RunRecord

            target = self.config.ledger_path
            record = RunRecord(
                bench="serve",
                kind="run",
                metrics={
                    "wall_s": round(wall, 6),
                    "queue_wait_s": round(queue_wait, 6),
                    "predicted_s": round(job.predicted_s, 6),
                },
                extra={
                    "serve": {
                        "tenant": job.tenant,
                        "request_id": job.request_id,
                        "job_id": job.job_id,
                        "spec": job.spec.to_dict(),
                        "S": leaf_size,
                        "opcache": self.operators.stats(),
                        "queue_depth": job.queue_depth,
                        "active_tenants": job.active_tenants,
                    }
                },
            )
            RunLedger(None if target == "auto" else target).append(record)
        except Exception:
            pass  # the recorder must never fail a served request

    # ------------------------------------------------------------------ TCP
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """JSON-lines loop; requests on one connection are multiplexed.

        Chaos-hardened: oversized frames answer a structured 400 and the
        connection keeps serving; writes tolerate the peer vanishing
        mid-response (the solve result is simply dropped — the solver
        and dispatcher never see the disconnect).
        """
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        frames = _FrameReader(reader, self.config.max_frame_bytes)

        async def send(response: dict) -> None:
            try:
                async with write_lock:
                    writer.write(write_message(response))
                    await writer.drain()
            except (ConnectionError, OSError):
                pass  # peer is gone; nothing left to deliver to

        async def respond(payload: dict) -> None:
            await send(await self.handle_request(payload))

        try:
            while True:
                try:
                    line = await frames.read_frame()
                except FrameTooLargeError as exc:
                    await send({"id": None, "ok": False, "error": exc.to_dict()})
                    continue
                if line is None:
                    break
                try:
                    payload = read_message(line)
                except ProtocolError as exc:
                    await send({"id": None, "ok": False, "error": exc.to_dict()})
                    continue
                task = asyncio.get_running_loop().create_task(respond(payload))
                pending.add(task)
                task.add_done_callback(pending.discard)
        except (ConnectionError, OSError):
            pass  # abrupt disconnect mid-read; in-flight tasks settle below
        finally:
            if pending:
                await asyncio.gather(*list(pending), return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


# -------------------------------------------------------------------- CLI


async def _serve_forever(server: JobServer) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()

    def request_drain(signame: str) -> None:
        print(f"received {signame}; draining (finishing in-flight, 503ing new work)")
        stop.set()

    installed: list[int] = []
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(signal, signame, None)
        if signum is None:
            continue
        try:
            loop.add_signal_handler(signum, request_drain, signame)
            installed.append(signum)
        except (NotImplementedError, RuntimeError, ValueError):
            pass  # no loop signal support (e.g. Windows); KeyboardInterrupt path
    print(
        f"serving on {server.config.host}:{server.port} "
        f"(pool={server.config.pool_size}, "
        f"max_tenants={server.config.max_tenants}, "
        f"shed_budget={server.config.shed_budget_s}s)"
    )
    try:
        assert server._server is not None
        forever = loop.create_task(server._server.serve_forever())
        stopper = loop.create_task(stop.wait())
        await asyncio.wait({forever, stopper}, return_when=asyncio.FIRST_COMPLETED)
        for task in (forever, stopper):
            task.cancel()
        await asyncio.gather(forever, stopper, return_exceptions=True)
    finally:
        for signum in installed:
            loop.remove_signal_handler(signum)
        await server.drain()
        print("drained; shut down")


def main(
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    pool: int = 2,
    max_tenants: int = 8,
    shed_budget: float = 60.0,
    max_frame_mb: int = 32,
    ledger: str | None = None,
) -> None:
    """``python -m repro serve`` — run the job server until interrupted."""
    config = ServeConfig(
        host=host,
        port=int(port),
        pool_size=int(pool),
        max_tenants=int(max_tenants),
        shed_budget_s=float(shed_budget),
        max_frame_bytes=int(max_frame_mb) << 20,
        ledger_path=None if ledger in (None, "none", "off") else ledger,
    )
    server = JobServer(config)
    try:
        asyncio.run(_serve_forever(server))
    except KeyboardInterrupt:
        print("interrupted; shut down")
