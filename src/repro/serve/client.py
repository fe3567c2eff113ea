"""Clients for the job server: TCP, in-process, and a test harness.

:class:`ServeClient` speaks the JSON-lines protocol either over a real
socket or straight into :meth:`JobServer.handle_request` on the server's
loop — the two paths serialize through the identical codec, so tests
exercising the in-process client cover the wire format too.

:class:`BackgroundServer` runs a :class:`~repro.serve.server.JobServer`
on an asyncio loop in a daemon thread, for tests/benchmarks/examples
that need a live server inside one process::

    with BackgroundServer(ServeConfig(pool_size=2)) as bg:
        out = bg.client().solve({"kernel": "laplace", "n": 500}, tenant="a")
"""

from __future__ import annotations

import asyncio
import itertools
import socket
import threading
import time
from typing import Any

from repro.serve.protocol import (
    ServeError,
    SolveSpec,
    read_message,
    write_message,
)
from repro.serve.server import JobServer, ServeConfig

__all__ = ["BackgroundServer", "ServeClient"]


class ServeClient:
    """Blocking protocol client (one of ``tcp`` / ``in-process``).

    The TCP path retries transient failures with exponential backoff:
    a reset/closed connection is re-established and the request is
    re-sent, and a structured 503 (server draining / shutting down)
    backs off and retries on both transports.  ``retries`` bounds the
    extra attempts (0 disables); ``retries_total`` counts every retry
    actually taken, for tests and telemetry.
    """

    def __init__(
        self,
        *,
        host: str | None = None,
        port: int | None = None,
        server: JobServer | None = None,
        loop: asyncio.AbstractEventLoop | None = None,
        timeout: float | None = 300.0,
        retries: int = 2,
        backoff_s: float = 0.1,
    ) -> None:
        if int(retries) < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if float(backoff_s) < 0:
            raise ValueError(f"backoff_s must be >= 0, got {backoff_s}")
        self._ids = itertools.count(1)
        self._timeout = timeout
        self._retries = int(retries)
        self._backoff_s = float(backoff_s)
        self.retries_total = 0
        self._sock: socket.socket | None = None
        self._rfile = None
        self._server = None
        self._loop = None
        self._host: str | None = None
        self._port: int | None = None
        self._closed = False
        if server is not None:
            if loop is None:
                raise ValueError("in-process client needs the server's loop")
            self._server, self._loop = server, loop
        elif host is not None and port is not None:
            self._host, self._port = host, int(port)
            self._connect()
        else:
            raise ValueError("pass either host+port or server+loop")

    # ------------------------------------------------------------ transport
    def _connect(self) -> None:
        if self._closed:
            raise ConnectionError("client is closed")
        assert self._host is not None and self._port is not None
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._rfile = self._sock.makefile("rb")

    def _drop_socket(self) -> None:
        if self._rfile is not None:
            try:
                self._rfile.close()
            except OSError:
                pass
            self._rfile = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def _request_once(self, payload: dict) -> dict:
        if self._server is not None:
            future = asyncio.run_coroutine_threadsafe(
                self._server.handle_request(
                    read_message(write_message(payload))
                ),
                self._loop,
            )
            response = future.result(timeout=self._timeout)
            # round-trip the response through the codec as well, so the
            # in-process path proves the wire format end to end
            response = read_message(write_message(response))
        else:
            if self._sock is None:
                self._connect()
            assert self._sock is not None and self._rfile is not None
            self._sock.sendall(write_message(payload))
            line = self._rfile.readline()
            if not line:
                raise ConnectionError("server closed the connection")
            response = read_message(line)
        if not response.get("ok"):
            raise ServeError.from_dict(response.get("error", {}))
        return response["result"]

    def request(self, kind: str, spec: dict | None = None, *, tenant: str = "default") -> dict:
        """Send one request, wait for its response, return the result.

        Raises :class:`ServeError` carrying the structured error when the
        server answers ``ok: false`` (after retries for 503s).
        """
        if isinstance(spec, SolveSpec):
            spec = spec.to_dict()
        payload: dict[str, Any] = {
            "id": next(self._ids),
            "kind": kind,
            "tenant": tenant,
        }
        if spec is not None:
            payload["spec"] = spec
        last_exc: Exception | None = None
        for attempt in range(self._retries + 1):
            if attempt:
                self.retries_total += 1
                time.sleep(self._backoff_s * (2 ** (attempt - 1)))
            try:
                return self._request_once(payload)
            except ServeError as exc:
                if exc.code != 503 or attempt == self._retries:
                    raise
                last_exc = exc
            except TimeoutError:
                raise  # a slow server is not a transient transport fault
            except (ConnectionError, OSError) as exc:
                if self._server is not None or self._closed:
                    raise  # in-process has no transport to re-establish
                self._drop_socket()  # reconnect lazily on the next attempt
                if attempt == self._retries:
                    raise
                last_exc = exc
        raise last_exc  # pragma: no cover — loop always returns or raises

    # ---------------------------------------------------------- convenience
    def solve(self, spec: dict, *, tenant: str = "default") -> dict:
        return self.request("solve", spec, tenant=tenant)

    def status(self) -> dict:
        return self.request("status")

    def close(self) -> None:
        self._closed = True
        self._drop_socket()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class BackgroundServer:
    """A live :class:`JobServer` on a daemon-thread asyncio loop."""

    def __init__(self, config: ServeConfig | None = None, *, tcp: bool = True) -> None:
        self.config = config or ServeConfig()
        self.server = JobServer(self.config)
        self._tcp = tcp
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    # ------------------------------------------------------------ lifecycle
    def __enter__(self) -> "BackgroundServer":
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-loop", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("serve loop failed to start within 30s")
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") from self._startup_error
        return self

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop

        async def boot() -> None:
            try:
                if self._tcp:
                    await self.server.start()
            except BaseException as exc:  # noqa: BLE001 — report to the waiter
                self._startup_error = exc
            finally:
                self._ready.set()

        try:
            loop.run_until_complete(boot())
            loop.run_forever()
            # drain: let closing transports run their connection-lost
            # callbacks before the loop goes away, else their finalizers
            # fire against a closed loop
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.run_until_complete(asyncio.sleep(0))
            loop.run_until_complete(loop.shutdown_asyncgens())
        finally:
            loop.close()

    def __exit__(self, *exc) -> None:
        loop, thread = self._loop, self._thread
        if loop is None or thread is None:
            return
        future = asyncio.run_coroutine_threadsafe(self.server.aclose(), loop)
        try:
            future.result(timeout=60.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=30.0)

    # -------------------------------------------------------------- clients
    @property
    def port(self) -> int:
        return self.server.port

    def client(self, *, in_process: bool = False, timeout: float | None = 300.0) -> ServeClient:
        if in_process:
            assert self._loop is not None
            return ServeClient(server=self.server, loop=self._loop, timeout=timeout)
        return ServeClient(host=self.config.host, port=self.port, timeout=timeout)
