"""Serve-layer chaos: hostile frames, abrupt peers, drain, client retry.

The contract under protocol abuse is containment: a bad frame answers a
structured 400 on the same connection, a vanished peer costs only its
own response, and in every case the *next* well-formed request must be
served with results bitwise identical to the direct solver — the
dispatcher never wedges and the warm pool is never poisoned.

Graceful drain: from the moment a drain starts, new work answers 503
``"draining"`` while ``status`` stays readable and in-flight solves run
to completion.  The TCP client retries reset connections and 503s with
exponential backoff, so a rolling restart is invisible to callers.
"""

from __future__ import annotations

import socket
import threading
import time

import numpy as np
import pytest

from repro.serve.client import BackgroundServer, ServeClient
from repro.serve.protocol import ServeError, read_message, write_message
from repro.serve.server import ServeConfig, solve_direct

SPEC = {"kernel": "laplace", "n": 400, "seed": 7}


@pytest.fixture(scope="module")
def direct():
    return solve_direct(SPEC)


def _raw_request(sock, payload: dict) -> dict:
    sock.sendall(write_message(payload))
    buf = b""
    while not buf.endswith(b"\n"):
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection")
        buf += chunk
    return read_message(buf)


def _assert_solve_ok(response: dict, direct: dict) -> None:
    assert response["ok"], response
    assert np.array_equal(response["result"]["potential"], direct["potential"])


# ------------------------------------------------------------- hostile frames
class TestHostileFrames:
    def test_oversized_frame_structured_400_then_healthy(self, direct):
        """A frame past max_frame_bytes is rejected without buffering it,
        and the same connection keeps serving."""
        config = ServeConfig(pool_size=1, max_frame_bytes=2048)
        with BackgroundServer(config) as bg:
            with socket.create_connection(("127.0.0.1", bg.port), timeout=60) as s:
                s.sendall(b"x" * (1 << 20) + b"\n")  # 1 MiB, no JSON in sight
                buf = b""
                while not buf.endswith(b"\n"):
                    buf += s.recv(65536)
                err = read_message(buf)
                assert err["ok"] is False
                assert err["error"]["code"] == 400
                assert err["error"]["kind"] == "frame-too-large"
                assert err["error"]["details"]["max_frame_bytes"] == 2048
                # same connection, next frame: served and bitwise-correct
                ok = _raw_request(
                    s, {"id": 1, "kind": "solve", "tenant": "a", "spec": SPEC}
                )
                _assert_solve_ok(ok, direct)

    def test_malformed_and_binary_junk_then_healthy(self, direct):
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            with socket.create_connection(("127.0.0.1", bg.port), timeout=60) as s:
                for junk in (b'{"id": 3, "kind"\n', b"\x00\xff\xfe\x01junk\n"):
                    s.sendall(junk)
                    buf = b""
                    while not buf.endswith(b"\n"):
                        buf += s.recv(65536)
                    err = read_message(buf)
                    assert err["ok"] is False
                    assert err["error"]["code"] == 400
                ok = _raw_request(
                    s, {"id": 4, "kind": "solve", "tenant": "a", "spec": SPEC}
                )
                _assert_solve_ok(ok, direct)

    def test_truncated_frame_then_eof_leaves_server_accepting(self, direct):
        """A half-written frame followed by disconnect must not wedge the
        listener; a fresh connection is served normally."""
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            s = socket.create_connection(("127.0.0.1", bg.port), timeout=60)
            s.sendall(b'{"id": 9, "kind": "so')  # no newline, then gone
            s.close()
            with socket.create_connection(("127.0.0.1", bg.port), timeout=60) as s2:
                ok = _raw_request(
                    s2, {"id": 10, "kind": "solve", "tenant": "b", "spec": SPEC}
                )
                _assert_solve_ok(ok, direct)

    def test_abrupt_disconnect_mid_response_does_not_poison_pool(self, direct):
        """Peer vanishes while its solve is in flight: the response is
        dropped on the floor, the pool thread survives, and the next
        client gets bitwise-correct results."""
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            s = socket.create_connection(("127.0.0.1", bg.port), timeout=60)
            s.sendall(
                write_message(
                    {"id": 1, "kind": "solve", "tenant": "gone", "spec": SPEC}
                )
            )
            s.close()  # leave before the answer
            with socket.create_connection(("127.0.0.1", bg.port), timeout=60) as s2:
                ok = _raw_request(
                    s2, {"id": 2, "kind": "solve", "tenant": "here", "spec": SPEC}
                )
                _assert_solve_ok(ok, direct)
            status = bg.client(in_process=True).status()
            assert status["state"] == "serving"

    def test_slow_writer_is_served(self, direct):
        """Bytes trickling in one at a time still assemble into a frame."""
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            with socket.create_connection(("127.0.0.1", bg.port), timeout=60) as s:
                frame = write_message(
                    {"id": 5, "kind": "solve", "tenant": "slow", "spec": SPEC}
                )
                for i in range(0, len(frame), 7):
                    s.sendall(frame[i : i + 7])
                    time.sleep(0.001)
                buf = b""
                while not buf.endswith(b"\n"):
                    buf += s.recv(65536)
                _assert_solve_ok(read_message(buf), direct)


# ------------------------------------------------------------- graceful drain
class TestGracefulDrain:
    def test_drain_503s_new_work_and_finishes_inflight(self, direct):
        import asyncio

        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            slow_spec = {"kernel": "laplace", "n": 20_000, "seed": 7}
            slow_direct = solve_direct(slow_spec)
            results: dict = {}

            def run_slow():
                results["slow"] = c.solve(slow_spec, tenant="inflight")

            t = threading.Thread(target=run_slow)
            t.start()
            deadline = time.monotonic() + 30.0
            while (
                bg.server.scheduler.inflight_total() == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert bg.server.scheduler.inflight_total() == 1
            drain_future = asyncio.run_coroutine_threadsafe(
                bg.server.drain(), bg._loop
            )
            # health stays readable the whole time; work answers 503
            rejecter = ServeClient(server=bg.server, loop=bg._loop, retries=0)
            status = rejecter.status()
            assert status["draining"] is True
            assert status["state"] == "draining"
            with pytest.raises(ServeError) as err:
                rejecter.solve(SPEC, tenant="late")
            assert err.value.code == 503
            assert err.value.kind == "draining"
            drain_future.result(timeout=120.0)
            t.join(timeout=120.0)
            # the in-flight solve finished, bitwise-correct
            assert np.array_equal(
                results["slow"]["potential"], slow_direct["potential"]
            )
            assert bg.server.drains_total == 1
            # a second drain (the fixture teardown's aclose) is a no-op
            asyncio.run_coroutine_threadsafe(
                bg.server.drain(), bg._loop
            ).result(timeout=30.0)
            assert bg.server.drains_total == 1

    def test_status_reports_supervision_and_drain_fields(self):
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            status = bg.client(in_process=True).status()
            assert status["state"] == "serving"
            assert status["draining"] is False
            assert status["drains_total"] == 0
            assert status["inflight"] == 0


# --------------------------------------------------------------- client retry
class TestClientRetry:
    def test_retry_on_connection_reset(self, direct):
        """A torn TCP connection is re-established transparently."""
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            with ServeClient(
                host="127.0.0.1", port=bg.port, retries=2, backoff_s=0.01
            ) as c:
                out = c.solve(SPEC, tenant="a")
                assert np.array_equal(out["potential"], direct["potential"])
                # sever the transport out from under the client
                c._sock.shutdown(socket.SHUT_RDWR)
                out2 = c.solve(SPEC, tenant="a")
                assert np.array_equal(out2["potential"], direct["potential"])
                assert c.retries_total >= 1

    def test_retry_on_503_draining(self, direct):
        """A 503 during a rolling drain backs off and retries; when the
        flag clears (new server instance in real life) the call lands."""
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = ServeClient(
                server=bg.server, loop=bg._loop, retries=4, backoff_s=0.05
            )
            bg.server._draining = True
            timer = threading.Timer(
                0.12, lambda: setattr(bg.server, "_draining", False)
            )
            timer.start()
            try:
                out = c.solve(SPEC, tenant="a")
            finally:
                timer.cancel()
            assert np.array_equal(out["potential"], direct["potential"])
            assert c.retries_total >= 1

    def test_retries_exhausted_raise_the_503(self):
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = ServeClient(
                server=bg.server, loop=bg._loop, retries=1, backoff_s=0.01
            )
            bg.server._draining = True
            with pytest.raises(ServeError) as err:
                c.solve(SPEC, tenant="a")
            assert err.value.code == 503
            assert c.retries_total == 1
            bg.server._draining = False  # let teardown drain cleanly
