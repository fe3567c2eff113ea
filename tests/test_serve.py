"""Tests for the job server (repro.serve).

The load-bearing guarantee throughout: a served solve is *bitwise*
identical (``np.array_equal``) to a direct run of the same spec — the
shared operator cache, the scheduler, the deadline plumbing, and the
wire codec are all value-neutral.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    BackgroundServer,
    ServeConfig,
    ServeError,
    SharedOperatorCache,
    SolveSpec,
    estimate_op_counts,
    solve_direct,
)
from repro.serve.protocol import (
    ProtocolError,
    decode_payload,
    encode_payload,
    parse_request,
    read_message,
    write_message,
)
from repro.serve.scheduler import CostModelGovernor


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_array_codec_roundtrip_is_bitwise(self):
        rng = np.random.default_rng(0)
        for arr in (
            rng.standard_normal((17, 3)),
            np.array([np.pi, -0.0, np.inf, np.finfo(float).tiny]),
            np.arange(6, dtype=np.int64).reshape(2, 3),
        ):
            out = decode_payload(json.loads(json.dumps(encode_payload({"a": arr}))))
            assert out["a"].dtype == arr.dtype
            assert np.array_equal(out["a"], arr, equal_nan=True)

    def test_message_framing_roundtrip(self):
        msg = {"id": 3, "ok": True, "result": {"x": np.ones(4)}}
        line = write_message(msg)
        assert line.endswith(b"\n") and line.count(b"\n") == 1
        back = read_message(line)
        assert back["id"] == 3
        assert np.array_equal(back["result"]["x"], np.ones(4))

    def test_read_message_rejects_junk(self):
        with pytest.raises(ProtocolError):
            read_message(b"not json\n")
        with pytest.raises(ProtocolError):
            read_message(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            read_message(b"\n")

    def test_spec_validation_one_line_errors(self):
        for bad, needle in [
            ({"kernel": "coulomb"}, "kernel"),
            ({"n": 0}, "n must be"),
            ({"steps": -1}, "steps"),
            ({"steps": 2, "kernel": "stokeslet"}, "laplace"),
            ({"dt": 0.0}, "dt"),
            ({"order": 0}, "order"),
            ({"workers": 0}, "workers"),
            ({"deadline_s": -1.0}, "deadline_s"),
            ({"domain_size": 0.0}, "domain_size"),
            ({"bogus_field": 1}, "unknown spec field"),
        ]:
            with pytest.raises(ProtocolError, match=".*"):
                try:
                    SolveSpec.from_dict(bad)
                except ProtocolError as exc:
                    assert needle in exc.message
                    assert "\n" not in exc.message
                    raise

    def test_shards_rejected_eagerly_with_details(self):
        with pytest.raises(ProtocolError) as ei:
            SolveSpec.from_dict({"shards": 4})
        assert ei.value.code == 400
        assert ei.value.details == {"shards": 4}
        assert "server pool" in ei.value.message

    def test_parse_request_shapes(self):
        rid, kind, tenant, spec = parse_request(
            {"id": 9, "kind": "solve", "tenant": "t1", "spec": {"n": 50}}
        )
        assert (rid, kind, tenant, spec.n) == (9, "solve", "t1", 50)
        with pytest.raises(ProtocolError):
            parse_request({"kind": "explode"})
        with pytest.raises(ProtocolError):
            parse_request({"kind": "solve", "tenant": ""})


# -------------------------------------------------------------------- opcache
class TestSharedOperatorCache:
    def test_hit_miss_and_stats(self):
        c = SharedOperatorCache(max_bytes=1 << 20)
        assert c.get(("a",)) is None
        c.put(("a",), np.ones(8))
        assert np.array_equal(c.get(("a",)), np.ones(8))
        s = c.stats()
        assert s["hits"] == 1 and s["misses"] == 1 and s["puts"] == 1
        assert s["bytes"] == 64 and s["entries"] == 1

    def test_lru_eviction_under_byte_budget(self):
        c = SharedOperatorCache(max_bytes=3 * 800)
        for i in range(4):
            c.put(("k", i), np.zeros(100))  # 800 bytes each
        assert len(c) == 3
        assert c.evictions == 1
        assert c.get(("k", 0)) is None  # coldest entry was evicted
        assert c.get(("k", 3)) is not None
        # touching key 1 protects it from the next eviction
        c.get(("k", 1))
        c.put(("k", 9), np.zeros(100))
        assert c.get(("k", 1)) is not None
        assert c.get(("k", 2)) is None

    def test_single_oversized_entry_stays_resident(self):
        c = SharedOperatorCache(max_bytes=10)
        c.put(("big",), np.zeros(100))
        assert c.get(("big",)) is not None

    def test_scoped_views_isolate_root_sizes(self):
        c = SharedOperatorCache()
        a, b = c.scoped(1.0), c.scoped(2.0)
        a.put(("cart", 3, "M2L", 42), "op-at-1")
        assert a.get(("cart", 3, "M2L", 42)) == "op-at-1"
        assert b.get(("cart", 3, "M2L", 42)) is None
        assert a.evictions == 0

    def test_concurrent_get_put(self):
        c = SharedOperatorCache(max_bytes=64 << 10)
        errors = []

        def worker(tid):
            try:
                for i in range(200):
                    c.put((tid, i % 17), np.full(16, tid, dtype=float))
                    got = c.get((tid, i % 17))
                    if got is not None:
                        assert got[0] == tid
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        s = c.stats()
        assert s["puts"] == 800
        assert s["bytes"] <= 64 << 10


# ------------------------------------------------------------------ scheduler
class TestGovernor:
    def test_estimate_counts_monotone_in_n(self):
        small = estimate_op_counts(500, 3)
        big = estimate_op_counts(50_000, 3)
        for op in ("P2M", "M2L", "P2P"):
            assert big[op] > small[op]
        assert small["M2P"] == small["P2L"] == 0

    def test_prediction_tracks_observation(self):
        g = CostModelGovernor()
        spec = SolveSpec(n=2000)
        cold = g.predict(spec)
        assert cold > 0
        # feed three solves at ~0.5 s; prediction should land near that
        for _ in range(3):
            g.observe(spec, 0.5)
        warm = g.predict(spec)
        assert 0.1 < warm < 2.0
        snap = g.snapshot()
        assert snap["ready"] and snap["steps_observed"] == 3

    def test_stokeslet_and_steps_multiply_cost(self):
        g = CostModelGovernor()
        g.observe(SolveSpec(n=1000), 0.2)
        base = g.predict(SolveSpec(n=1000))
        assert g.predict(SolveSpec(n=1000, kernel="stokeslet")) > 3 * base
        assert g.predict(SolveSpec(n=1000, steps=10)) > 5 * base


# ------------------------------------------------------------------ served IO
LAPLACE = {"kernel": "laplace", "n": 300, "seed": 5, "order": 3}
STOKES = {"kernel": "stokeslet", "n": 180, "seed": 7, "order": 3}


@pytest.fixture(scope="module")
def direct_results():
    return {
        "laplace": solve_direct(LAPLACE),
        "stokeslet": solve_direct(STOKES),
    }


class TestServedSolves:
    def test_concurrent_mixed_tenants_bitwise_identical(self, direct_results):
        """Acceptance: served == direct for both kernels under load."""
        jobs = [
            ("alice", LAPLACE, "laplace"),
            ("bob", STOKES, "stokeslet"),
            ("carol", LAPLACE, "laplace"),
            ("alice", STOKES, "stokeslet"),
            ("dave", LAPLACE, "laplace"),
            ("bob", LAPLACE, "laplace"),
        ]
        results = [None] * len(jobs)
        with BackgroundServer(
            ServeConfig(pool_size=2, max_tenants=8, shed_budget_s=600.0)
        ) as bg:

            def run(i, tenant, spec):
                with bg.client() as c:
                    results[i] = c.solve(spec, tenant=tenant)

            threads = [
                threading.Thread(target=run, args=(i, tenant, spec))
                for i, (tenant, spec, _) in enumerate(jobs)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            status = bg.client(in_process=True).status()

        for out, (_, _, kind) in zip(results, jobs):
            assert out is not None
            direct = direct_results[kind]
            if kind == "laplace":
                assert np.array_equal(out["potential"], direct["potential"])
                assert np.array_equal(out["gradient"], direct["gradient"])
            else:
                assert np.array_equal(out["velocity"], direct["velocity"])
        assert status["served_total"] == len(jobs)
        # repeats of the same geometry class actually shared operators
        assert status["opcache"]["hits"] > 0

    def test_simulation_steps_bitwise_identical(self):
        spec = {"kernel": "laplace", "n": 250, "seed": 1, "steps": 2, "dt": 1e-4}
        direct = solve_direct(spec)
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            out = bg.client(in_process=True).solve(spec, tenant="sim")
        assert out["n_steps"] == 2
        assert np.array_equal(out["positions"], direct["positions"])
        assert np.array_equal(out["velocities"], direct["velocities"])

    def test_deadline_returns_408_and_pool_survives(self, direct_results):
        """Acceptance: deadline expiry is structured and non-poisoning."""
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            with pytest.raises(ServeError) as ei:
                c.solve(
                    {"kernel": "laplace", "n": 6000, "order": 6,
                     "deadline_s": 1e-3},
                    tenant="hasty",
                )
            assert ei.value.code == 408 and ei.value.kind == "deadline"
            assert "deadline_s" in ei.value.details
            # the very next request on the same pool succeeds, bitwise
            out = c.solve(LAPLACE, tenant="hasty")
            assert np.array_equal(
                out["potential"], direct_results["laplace"]["potential"]
            )
            assert bg.client(in_process=True).status()["deadline_total"] == 1

    def test_deadline_clock_covers_setup_and_changes_nothing_else(self, monkeypatch):
        """The budget's clock starts when the worker picks the request up,
        so a cold 10 ms request is refused during tree / list / geometry
        build, within one stage of its budget (the clock used to start
        after all three); and a deadline that does not expire
        does not change how — or on what — the request is solved."""
        from repro.runtime.engine import ExecutionEngine
        from repro.serve import server

        spec = {"kernel": "laplace", "n": 2000, "order": 3, "seed": 5}
        hasty = SolveSpec.from_dict({**spec, "deadline_s": 0.01})
        walls = []
        for _ in range(3):  # every attempt is cold: its own operator cache
            t0 = time.perf_counter()
            with pytest.raises(ServeError) as ei:
                server._solve_core(
                    hasty, opcache=SharedOperatorCache(), deadline_s=0.01
                )
            walls.append(time.perf_counter() - t0)
            assert ei.value.code == 408 and ei.value.kind == "deadline"
            assert ei.value.details["phase"] in ("tree", "lists", "geometry")
        assert min(walls) <= 0.05, walls

        engine_runs = []
        run = ExecutionEngine.run
        monkeypatch.setattr(
            ExecutionEngine, "run",
            lambda self, *a, **k: engine_runs.append(1) or run(self, *a, **k),
        )
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            plain = c.solve(spec, tenant="t")
            timed = c.solve({**spec, "deadline_s": 60.0}, tenant="t")
            assert engine_runs == []  # the same serial sweep, not a 1-worker graph
            for key in ("potential", "gradient"):
                assert np.array_equal(timed[key], plain[key])
            with pytest.raises(ServeError) as ei:
                c.solve({**spec, "deadline_s": 0.01, "seed": 6}, tenant="t")
            assert ei.value.code == 408 and ei.value.details["phase"] != "queue"
            assert c.status()["deadline_total"] == 1
            after = c.solve(spec, tenant="t")
        direct = solve_direct(spec)
        for key in ("potential", "gradient"):
            assert np.array_equal(after[key], direct[key])

    def test_admission_shed_is_structured_429(self):
        with BackgroundServer(
            ServeConfig(pool_size=1, shed_budget_s=0.2), tcp=False
        ) as bg:
            c = bg.client(in_process=True)
            c.solve({"kernel": "laplace", "n": 400}, tenant="warm")  # teach coeffs
            with pytest.raises(ServeError) as ei:
                c.solve(
                    {"kernel": "stokeslet", "n": 500_000, "order": 8},
                    tenant="whale",
                )
            err = ei.value
            assert err.code == 429 and err.kind == "shed"
            assert err.details["predicted_s"] > err.details["budget_s"]
            assert bg.client(in_process=True).status()["shed_total"] == 1

    def test_tenant_limit_is_structured_429(self):
        with BackgroundServer(
            ServeConfig(pool_size=1, max_tenants=1), tcp=False
        ) as bg:
            c = bg.client(in_process=True)
            done = threading.Event()
            holder = {}

            def slow():
                holder["out"] = c.solve(
                    {"kernel": "laplace", "n": 3000, "order": 5}, tenant="a"
                )
                done.set()

            t = threading.Thread(target=slow)
            t.start()
            # wait until tenant "a" is actually active server-side
            for _ in range(200):
                if bg.server.scheduler.active_tenants() >= 1:
                    break
                done.wait(0.05)
            with pytest.raises(ServeError) as ei:
                bg.client(in_process=True).solve(
                    {"kernel": "laplace", "n": 50}, tenant="b"
                )
            assert ei.value.code == 429 and ei.value.kind == "tenant-limit"
            t.join()
            assert "out" in holder

    def test_trace_kind_returns_serve_breakdown(self):
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            out = bg.client(in_process=True).trace(LAPLACE, tenant="t")
        assert out["trace"]["request_s"] > 0
        assert out["trace"]["opcache"]["puts"] > 0
        assert "coefficients" in out["trace"]["governor"]

    def test_malformed_tcp_line_gets_400_not_disconnect(self):
        with BackgroundServer(ServeConfig(pool_size=1)) as bg:
            with socket.create_connection(
                (bg.config.host, bg.port), timeout=30
            ) as sock:
                f = sock.makefile("rb")
                sock.sendall(b"this is not json\n")
                err = read_message(f.readline())
                assert err["ok"] is False and err["error"]["code"] == 400
                # connection still alive: a status request works
                sock.sendall(write_message({"id": 1, "kind": "status"}))
                ok = read_message(f.readline())
                assert ok["ok"] is True and "queue_depth" in ok["result"]

    def test_shutdown_rejects_new_work_with_503(self):
        from repro.serve.scheduler import FairScheduler

        async def run():
            sched = FairScheduler(lambda job: None, pool_size=1)
            await sched.close()
            with pytest.raises(ServeError) as ei:
                sched.submit("t", SolveSpec(n=10))
            assert ei.value.code == 503 and ei.value.kind == "shutdown"

        asyncio.run(run())

    def test_serve_ledger_records_one_line_per_solve(self, tmp_path):
        ledger = tmp_path / "serve_runs.jsonl"
        cfg = ServeConfig(pool_size=1, ledger_path=str(ledger))
        with BackgroundServer(cfg, tcp=False) as bg:
            c = bg.client(in_process=True)
            c.solve({"kernel": "laplace", "n": 120, "seed": 2}, tenant="led")
            c.solve({"kernel": "laplace", "n": 120, "seed": 2}, tenant="led")
        lines = [
            json.loads(s) for s in ledger.read_text().splitlines() if s.strip()
        ]
        assert len(lines) == 2
        for rec in lines:
            assert rec["bench"] == "serve"
            serve = rec["extra"]["serve"]
            assert serve["tenant"] == "led"
            assert serve["spec"]["n"] == 120
            assert rec["metrics"]["wall_s"] > 0
        # the second solve hit the warm cache
        assert lines[1]["extra"]["serve"]["opcache"]["hits"] > 0

    def test_metrics_gauges_exported(self):
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            c.solve({"kernel": "laplace", "n": 80}, tenant="m")
            snap = bg.server.telemetry.metrics.snapshot()
        names = set(snap)
        assert {
            "serve_queue_depth",
            "serve_tenants",
            "serve_opcache_bytes",
            "serve_requests_total",
            "serve_shed_total",
            "serve_deadline_total",
            "serve_request_seconds",
        } <= names


# ---------------------------------------------------- op-cache stats plumbing
class TestOperatorStatsUniformity:
    def test_farfield_stats_expose_op_counters_with_either_cache(self):
        """op_hits/op_builds/op_evictions appear for both cache kinds."""
        from repro.distributions.generators import compact_plummer
        from repro.expansions.cartesian import CartesianExpansion
        from repro.fmm.farfield import laplace_far_field
        from repro.geometry.box import Box
        from repro.tree.cache import ListCache
        from repro.tree.octree import AdaptiveOctree

        ps = compact_plummer(300, seed=0)
        tree = AdaptiveOctree(ps.positions, 32, root_box=Box((0, 0, 0), 1.0))
        expansion = CartesianExpansion(3)

        # default per-lists DictOperatorCache
        cache = ListCache()
        lists = cache.get(tree, folded=True)
        laplace_far_field(tree, lists, expansion, charges=ps.strengths)
        stats = lists.farfield_geometry_stats
        assert stats["op_builds"] > 0 and stats["op_evictions"] == 0
        builds_default = stats["op_builds"]

        # shared serve opcache installed through the same seam
        shared = SharedOperatorCache()
        cache2 = ListCache()
        cache2.share_operator_cache(shared)
        lists2 = cache2.get(tree, folded=True)
        laplace_far_field(tree, lists2, expansion, charges=ps.strengths)
        stats2 = lists2.farfield_geometry_stats
        assert set(stats2) >= {"op_hits", "op_builds", "op_evictions"}
        assert stats2["op_builds"] == builds_default

        # third tree, same root size: everything is a hit now
        cache3 = ListCache()
        cache3.share_operator_cache(shared)
        lists3 = cache3.get(tree, folded=True)
        out_direct, _ = laplace_far_field(
            tree, lists, expansion, charges=ps.strengths
        )
        out_shared, _ = laplace_far_field(
            tree, lists3, expansion, charges=ps.strengths
        )
        assert lists3.farfield_geometry_stats["op_builds"] == 0
        assert lists3.farfield_geometry_stats["op_hits"] > 0
        assert np.array_equal(out_shared, out_direct)
