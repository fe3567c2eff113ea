"""Tests for the job server (repro.serve).

The load-bearing guarantee throughout: a served solve is *bitwise*
identical (``np.array_equal``) to a direct run of the same spec — the
shared operator store, the scheduler, the deadline plumbing, and the
wire codec are all value-neutral.
"""

import asyncio
import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.kernels import p2p_backend
from repro.serve import (
    BackgroundServer,
    ServeConfig,
    ServeError,
    SolveSpec,
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
from repro.serve.scheduler import _PRIOR_S_PER_BODY, CostModelGovernor, FairScheduler
from repro.serve.server import JobServer


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

    @pytest.mark.parametrize("field", ["domain_size", "deadline_s"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_spec_values_are_rejected(self, field, value):
        """``json.loads`` yields all three, and ``nan <= 0`` is False; a NaN
        ``domain_size`` would be an operator-set key equal to nothing."""
        spec = json.loads(f'{{"n": 100, "seed": 1, "{field}": {value}}}')
        with pytest.raises(ProtocolError) as ei:
            SolveSpec.from_dict(spec)
        assert ei.value.code == 400 and field in ei.value.message

    def test_shards_rejected_eagerly_with_details(self):
        """A served solve never runs on shard processes: there is no
        ``shards`` field, so asking for one is an unknown field."""
        with pytest.raises(ProtocolError) as ei:
            SolveSpec.from_dict({"shards": 4})
        assert ei.value.code == 400
        assert "unknown spec field(s) ['shards']" in ei.value.message

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_shed_budget_must_be_finite(self, budget):
        """``drain_s > nan`` is always False: a NaN budget would never shed."""
        with pytest.raises(ValueError, match="shed_budget_s"):
            ServeConfig(shed_budget_s=budget)

    @pytest.mark.parametrize(
        "field", [{"workers": 4}, {"folded": False}, {"steps": 2}, {"dt": 1e-4}]
    )
    def test_back_end_fields_are_unknown_fields(self, field):
        """A spec names no back end and no time stepping: ``workers``,
        ``folded``, ``steps`` and ``dt`` are unknown fields, refused with
        the structured 400 at parse time (before anything is queued or any
        thread starts)."""
        (name,) = field
        with pytest.raises(ProtocolError) as ei:
            SolveSpec.from_dict({"n": 50, **field})
        assert ei.value.code == 400
        assert f"unknown spec field(s) ['{name}']" in ei.value.message

        async def run():
            srv = JobServer(ServeConfig(pool_size=1))
            try:
                return await srv.handle_request(
                    {"id": 3, "kind": "solve", "tenant": "t",
                     "spec": {"n": 50, **field}}
                ), srv.scheduler.queue_depth() + srv.scheduler.inflight_total()
            finally:
                await srv.aclose()

        response, pending = asyncio.run(run())
        assert response["id"] == 3 and not response["ok"] and pending == 0
        err = response["error"]
        assert err["code"] == 400 and err["kind"] == "bad-request"
        assert f"unknown spec field(s) ['{name}']" in err["message"]

    def test_parse_request_shapes(self):
        rid, kind, tenant, spec = parse_request(
            {"id": 9, "kind": "solve", "tenant": "t1", "spec": {"n": 50}}
        )
        assert (rid, kind, tenant, spec.n) == (9, "solve", "t1", 50)
        with pytest.raises(ProtocolError):
            parse_request({"kind": "explode"})
        with pytest.raises(ProtocolError):
            parse_request({"kind": "trace"})
        with pytest.raises(ProtocolError):
            parse_request({"kind": "solve", "tenant": ""})


# ------------------------------------------------------------ operator store
class TestOperatorStore:
    def test_store_stays_bounded_and_every_request_stays_bitwise(self, far_field):
        """``domain_size`` is client-supplied: 20 distinct ones leave at most
        ``MAX_RESIDENT_SETS`` sets resident, and no request is any the worse
        for the evictions (solved at S = 32, so each one runs the far field
        on its set: 300 bodies make V pairs there, 150 made none)."""
        from repro.expansions.operators import MAX_RESIDENT_SETS

        with BackgroundServer(ServeConfig(pool_size=2), tcp=False) as bg:
            c = bg.client(in_process=True)
            for i in range(20):
                spec = {"kernel": "laplace", "n": 300, "seed": i, "domain_size": 1.0 + i / 7}
                out, direct = c.solve(spec, tenant=f"t{i % 3}"), solve_direct(spec)
                assert out["op_counts"]["M2L"] > 0  # a far field on the resident set
                assert np.array_equal(out["potential"], direct["potential"])
                assert np.array_equal(out["gradient"], direct["gradient"])
            # a size seen before eviction is a hit, one evicted is rebuilt
            c.solve({"kernel": "laplace", "n": 300, "domain_size": 1.0 + 19 / 7}, tenant="t")
            c.solve({"kernel": "laplace", "n": 300, "domain_size": 1.0}, tenant="t")
            stats = c.status()["opcache"]
        assert stats["entries"] == MAX_RESIDENT_SETS
        assert (stats["hits"], stats["misses"]) == (1, 21)
        assert 0 < stats["bytes"] <= MAX_RESIDENT_SETS * (4 << 20)

    def test_threads_asking_for_one_key_share_one_set(self):
        """More threads than cores, a short switch interval: racing builds of
        one key keep one set (either product would do — a build is
        deterministic) and no lookup is lost from the counters while other
        keys fill the store beside it (eviction: the test above)."""
        import sys

        from repro.expansions.cartesian import CartesianExpansion
        from repro.expansions.operators import MAX_RESIDENT_SETS, OperatorSet, OperatorStore

        store, exp = OperatorStore(), CartesianExpansion(2)
        n_threads, rounds = 4, 6
        start, got, errors = threading.Barrier(n_threads), [], []

        def ask(tid):
            try:
                start.wait(timeout=30)
                got.append(store.get(exp, 1.5)[0])
                for i in range(rounds):  # 7 more sizes: the store fills, evicts none
                    ops, _ = store.get(exp, 2.0 + (tid * rounds + i) % 7)
                    assert ops.h_root == 2.0 + (tid * rounds + i) % 7
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=ask, args=(t,)) for t in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not errors and not any(t.is_alive() for t in threads)
        assert len(got) == n_threads and all(ops is got[0] for ops in got)
        for a, b in zip(got[0], OperatorSet.build(exp, 1.5)):
            assert np.array_equal(a, b) and not a.flags.writeable
        s = store.stats()
        assert s["hits"] + s["misses"] == n_threads * (1 + rounds)
        assert s["entries"] == MAX_RESIDENT_SETS == 8
        assert s["bytes"] == 8 * got[0].nbytes


# ------------------------------------------------------------------ scheduler
class TestGovernor:
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
        assert g.snapshot()["observed"] == 3

    def test_price_is_linear_in_bodies(self):
        """A request costs seconds per body x n: cold at the prior, then at
        the learned rate."""
        g = CostModelGovernor()
        assert g.predict(SolveSpec(n=1000)) == _PRIOR_S_PER_BODY * 1000
        g.observe(SolveSpec(n=1000), 0.2)
        base = g.predict(SolveSpec(n=1000))
        assert base == pytest.approx(0.2, rel=1e-12)
        assert g.predict(SolveSpec(n=4000)) == pytest.approx(4 * base, rel=1e-12)

    def test_unserved_kernel_is_priced_at_the_server_wide_rate(self):
        g = CostModelGovernor()
        g.observe(SolveSpec(n=2000), 0.4)
        g.observe(SolveSpec(n=2000), 0.2)
        wide = g.snapshot()["s_per_body"]
        assert wide == pytest.approx((0.3 * 0.2 + 0.7 * 0.4) / 2000, rel=1e-12)
        stokeslet = SolveSpec(n=3000, kernel="stokeslet")
        assert g.predict(stokeslet) == pytest.approx(wide * 3000, rel=1e-12)

    def test_each_kernel_converges_on_its_own_wall_time(self):
        """In a mixed stream a request is priced from its kernel's own
        solves: one shared rate would price both kernels at ~the same
        seconds whatever they cost."""
        g = CostModelGovernor()
        laplace, stokeslet = SolveSpec(n=2000), SolveSpec(n=2000, kernel="stokeslet")
        for _ in range(4):
            g.observe(laplace, 0.2)
            g.observe(stokeslet, 0.3)
        assert g.predict(laplace) == pytest.approx(0.2, rel=0.02)
        assert g.predict(stokeslet) == pytest.approx(0.3, rel=0.02)
        assert g.snapshot()["observed"] == 8

class _Recorder:
    """A fake ``run_job``: records enter / exit per job and holds every job
    named in ``gates`` at its entry until that event is set."""

    def __init__(self, *gated):
        self.events = []
        self.gates = {name: threading.Event() for name in gated}
        self._lock = threading.Lock()
        self._active = 0
        self.peak = 0

    def __call__(self, job):
        name = job.spec.seed
        with self._lock:
            self.events.append(("enter", name))
            self._active += 1
            self.peak = max(self.peak, self._active)
        if name in self.gates:
            assert self.gates[name].wait(30)
        with self._lock:
            self._active -= 1
            self.events.append(("exit", name))
        return name

    def entered(self):
        return [name for what, name in self.events if what == "enter"]


async def _until(predicate):
    """Yield to the loop until ``predicate()`` holds (bounded, no clock)."""
    for _ in range(200_000):
        if predicate():
            return
        await asyncio.sleep(0)
    raise AssertionError("condition never held")


class TestSolverThread:
    """One solver thread per pool slot: ``pool_size`` jobs solve at once,
    and a job leaves its tenant queue only when a thread is free, so jobs
    start in round-robin order."""

    #: (tenant, seed) in submission order; round-robin over a, b, c
    JOBS = [("a", 1), ("a", 2), ("a", 3), ("b", 4), ("c", 5), ("c", 6)]
    ROUND_ROBIN = [1, 4, 5, 2, 6, 3]

    def _submit_all(self, sched):
        return [sched.submit(t, SolveSpec(n=10, seed=s)) for t, s in self.JOBS]

    def test_pool_size_jobs_solve_at_once_in_round_robin_start_order(self):
        async def run():
            fake = _Recorder(*(s for _, s in self.JOBS))
            sched = FairScheduler(fake, pool_size=2)
            futures = self._submit_all(sched)
            # both threads take a job; the other four wait in their queues
            await _until(lambda: len(fake.entered()) == 2)
            assert sorted(fake.entered()) == sorted(self.ROUND_ROBIN[:2])
            assert sched.inflight_total() == 2 and sched.queue_depth() == 4
            # each finished job frees one thread, which starts the next
            # job in round-robin order
            for k, done in enumerate(self.ROUND_ROBIN):
                fake.gates[done].set()
                if k + 2 < len(self.ROUND_ROBIN):
                    await _until(lambda: len(fake.entered()) == k + 3)
                    assert fake.entered()[-1] == self.ROUND_ROBIN[k + 2]
                    assert sched.inflight_total() == 2
            results = await asyncio.gather(*futures)
            await sched.close()
            return fake, results, sched

        fake, results, sched = asyncio.run(run())
        assert results == [s for _, s in self.JOBS]
        assert fake.peak == 2  # two solves at once, never three
        assert sorted(fake.entered()) == sorted(self.ROUND_ROBIN)
        assert sched.served_total == 6 and sched.inflight_total() == 0

    def test_close_finishes_what_was_dispatched_and_503s_the_rest(self):
        async def run():
            fake = _Recorder(1, 4)
            sched = FairScheduler(fake, pool_size=2)
            futures = self._submit_all(sched)
            await _until(lambda: len(fake.entered()) == 2)
            closing = asyncio.get_running_loop().create_task(sched.close())
            await asyncio.sleep(0)  # close() has failed the queues by now
            fake.gates[1].set()
            fake.gates[4].set()
            await asyncio.wait_for(closing, 30)
            # every future is settled: nothing is lost between queue and slot
            return fake, await asyncio.wait_for(
                asyncio.gather(*futures, return_exceptions=True), 30
            )

        fake, outcomes = asyncio.run(run())
        by_seed = {s: out for (_, s), out in zip(self.JOBS, outcomes)}
        assert sorted(fake.entered()) == [1, 4]
        assert by_seed[1] == 1 and by_seed[4] == 4
        for seed in (5, 2, 6, 3):
            err = by_seed[seed]
            assert isinstance(err, ServeError)
            assert err.code == 503 and err.kind == "shutdown"

    def test_governor_learns_the_solve_not_the_wait_behind_it(self, monkeypatch):
        """Two equal jobs on one slot: the second waits one solve in its
        queue, and that wait is not part of its wall."""
        from types import SimpleNamespace

        from repro.serve import scheduler

        now = [0.0]
        monkeypatch.setattr(
            scheduler, "time", SimpleNamespace(monotonic=lambda: now[0])
        )
        gate = threading.Event()
        started = []

        def one_second_solve(job):
            started.append(job.started_at)
            assert gate.wait(30)
            now[0] += 1.0

        spec = SolveSpec(n=2000)

        async def run():
            sched = FairScheduler(one_second_solve, pool_size=1)
            futures = [sched.submit("t", spec), sched.submit("t", spec)]
            await _until(lambda: started)
            gate.set()
            await asyncio.gather(*futures)
            await sched.close()
            return sched.governor.predict(spec)

        predicted = asyncio.run(run())
        assert started == [0.0, 1.0]  # stamped when each solve really began
        assert 1.0 / 1.3 <= predicted <= 1.3

    def test_expiry_while_queued_is_counted_once_and_never_run(self):
        async def run():
            fake = _Recorder(1)
            sched = FairScheduler(fake, pool_size=1)
            blocker = sched.submit("t", SolveSpec(n=10, seed=1))
            await _until(lambda: fake.entered() == [1])
            hasty = sched.submit("t", SolveSpec(n=10, seed=2, deadline_s=1e-3))
            await asyncio.sleep(5e-3)  # the budget lapses in the queue
            fake.gates[1].set()
            await blocker
            with pytest.raises(ServeError) as ei:
                await hasty
            await sched.close()
            return fake, sched, ei.value

        fake, sched, err = asyncio.run(run())
        assert err.code == 408 and err.kind == "deadline"
        assert "queued_s" in err.details
        assert sched.deadline_total == 1 and sched.failed_total == 1
        assert fake.entered() == [1]

    def test_expiry_between_dispatch_and_pickup_is_refused_at_entry(
        self, monkeypatch
    ):
        """Dispatched with budget left, picked up with none (a solver
        thread slow to wake): ``_solve_core``'s entry check answers 408
        phase ``queue`` and nothing is solved."""
        from repro.serve import server

        pick_up = FairScheduler._solve

        def slow_pick_up(self, job):
            time.sleep(0.06)
            return pick_up(self, job)

        monkeypatch.setattr(FairScheduler, "_solve", slow_pick_up)
        run_solve, solved = server._run_solve, []
        monkeypatch.setattr(
            server, "_run_solve",
            lambda spec, *a: solved.append(spec.seed) or run_solve(spec, *a),
        )
        with BackgroundServer(ServeConfig(pool_size=2), tcp=False) as bg:
            c = bg.client(in_process=True)
            with pytest.raises(ServeError) as ei:
                c.solve(
                    {"kernel": "laplace", "n": 100, "seed": 2, "deadline_s": 0.05},
                    tenant="t2",
                )
            out = c.solve({"kernel": "laplace", "n": 100, "seed": 1}, tenant="t1")
            status = c.status()

        err = ei.value
        assert err.code == 408 and err.details["phase"] == "queue"
        assert solved == [1] and "potential" in out
        assert status["deadline_total"] == 1 and status["failed_total"] == 1


class TestSharedBySolverThreads:
    """The process-wide objects two solver threads share (DESIGN.md §15's
    audit table) hold up under concurrent use."""

    def test_native_library_resolves_once_across_threads(self, native_p2p, monkeypatch):
        from repro.kernels import _native

        builds, build = [], _native._build
        monkeypatch.setattr(_native, "_library", _native._UNRESOLVED)
        monkeypatch.setattr(
            _native, "_build", lambda: builds.append(1) or build()
        )
        start = threading.Barrier(4, timeout=30)
        seen = []

        def resolve():
            start.wait()
            seen.append(_native.library())

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert builds == [1] and len(seen) == 4
        assert all(lib is seen[0] for lib in seen) and seen[0] is not None

    def test_cached_expansion_tables_are_read_only(self):
        from repro.expansions.cartesian import CartesianExpansion
        from repro.expansions.derivatives import derivative_recurrence_plan
        from repro.expansions.spherical import SphericalExpansion

        cart, sph = CartesianExpansion(3), SphericalExpansion(3)
        mis = cart.mis
        tables = [
            *mis.harmonic_tables(), *mis.m2l_tables(),
            *(a for t in mis.gradient_tables() for a in t),
            derivative_recurrence_plan(3)[0].indices,
            *sph.l2p_gradient_matrices(),
        ]
        for table in tables:
            assert isinstance(table, np.ndarray)
            with pytest.raises(ValueError):
                table[...] = 0

    def test_concurrent_gemm_is_bitwise_the_single_callers(self):
        """M2L's and the shift levels' BLAS calls from two solver threads
        give the bits one caller gets."""
        rng = np.random.default_rng(3)
        shapes = [(64, 128, 128), (300, 96, 96), (17, 512, 64), (1000, 32, 256)]
        pairs = [(rng.standard_normal((m, k)), rng.standard_normal((k, n)))
                 for m, k, n in shapes]
        want = [a @ b for a, b in pairs]
        mismatches = []
        start = threading.Barrier(2, timeout=30)

        def hammer():
            start.wait()
            for _ in range(50):
                for (a, b), w in zip(pairs, want):
                    if not np.array_equal(a @ b, w):
                        mismatches.append(a.shape)

        threads = [threading.Thread(target=hammer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
        assert mismatches == []


# ------------------------------------------------------------------ served IO
LAPLACE = {"kernel": "laplace", "n": 300, "seed": 5, "order": 3}
STOKES = {"kernel": "stokeslet", "n": 180, "seed": 7, "order": 3}
#: requests the cost model solves on trees of S != 32 with a far field
CHOSEN_NOT_32 = (
    {"kernel": "laplace", "n": 8000, "seed": 3, "order": 5},
    {"kernel": "stokeslet", "n": 7000, "seed": 3, "order": 3},
)


def _at_32(*_args):
    return 32


@pytest.fixture
def far_field(monkeypatch):
    """Serve and solve directly at S = 32, where the small test specs run
    the far field on the shared operator set (M2M and L2L; LAPLACE M2L as
    well): at the S the cost model chooses for them (256 or 512) they are
    one-leaf trees."""
    from repro.serve import server

    monkeypatch.setattr(server, "choose_leaf_size", _at_32)


@pytest.fixture(scope="module")
def direct_results():
    """``solve_direct`` of LAPLACE and STOKES at S = 32 (see ``far_field``)."""
    from repro.serve import server

    with pytest.MonkeyPatch.context() as m:
        m.setattr(server, "choose_leaf_size", _at_32)
        return {
            "laplace": solve_direct(LAPLACE),
            "stokeslet": solve_direct(STOKES),
        }


class TestServedSolves:
    def test_concurrent_mixed_tenants_bitwise_identical(self, direct_results, far_field):
        """Acceptance: served == direct for both kernels under load, while
        two solver threads run the far field on one shared operator set."""
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
            assert out["S"] == 32 and out["op_counts"]["M2M"] > 0
            direct = direct_results[kind]
            if kind == "laplace":
                assert out["op_counts"]["M2L"] > 0
                assert np.array_equal(out["potential"], direct["potential"])
                assert np.array_equal(out["gradient"], direct["gradient"])
            else:
                assert np.array_equal(out["velocity"], direct["velocity"])
        assert status["served_total"] == len(jobs)
        # requests over the same domain actually shared their operator set
        assert status["opcache"]["hits"] > 0

    def test_served_equals_direct_under_each_p2p_body(self, p2p_impl, far_field):
        direct, stokes = solve_direct(LAPLACE), solve_direct(STOKES)
        with BackgroundServer(ServeConfig(pool_size=2), tcp=False) as bg:
            out = bg.client(in_process=True).solve(LAPLACE, tenant="erin")
            u = bg.client(in_process=True).solve(STOKES, tenant="erin")
        assert np.array_equal(out["potential"], direct["potential"])
        assert np.array_equal(out["gradient"], direct["gradient"])
        assert np.array_equal(u["velocity"], stokes["velocity"])
        assert out["op_counts"]["M2L"] > 0 and u["op_counts"]["M2M"] > 0

    def test_two_tenants_solve_two_at_a_time_bitwise(
        self, p2p_impl, far_field, monkeypatch
    ):
        """``pool_size=2``: two tenants' mixed Laplace / Stokeslet requests
        solve exactly two at a time, start alternating between the tenants
        and each equal ``solve_direct`` bitwise (at S = 32: far field and
        all)."""
        from repro.serve import server
        from repro.serve.server import JobServer

        jobs = [
            (tenant, dict(STOKES if i % 3 == 2 else LAPLACE, seed=10 * k + i))
            for k, tenant in enumerate(("a", "b"))
            for i in range(4)
        ]
        direct = {spec["seed"]: solve_direct(spec) for _, spec in jobs}
        tenant_of = {spec["seed"]: t for t, spec in jobs}

        lock, active, peak, starts = threading.Lock(), [0], [0], []
        overlap = threading.Barrier(2, timeout=30)
        solve_core = server._solve_core

        def counted(spec, **kwargs):
            with lock:
                active[0] += 1
                peak[0] = max(peak[0], active[0])
                starts.append(spec.seed)
                first_two = len(starts) <= 2
            try:
                if first_two:
                    overlap.wait()  # the first two solves are in flight together
                return solve_core(spec, **kwargs)
            finally:
                with lock:
                    active[0] -= 1

        monkeypatch.setattr(server, "_solve_core", counted)

        async def run():
            srv = JobServer(ServeConfig(pool_size=2, shed_budget_s=600.0))
            try:
                # every request is queued before the first one starts:
                # tenant a's four ahead of tenant b's
                return await asyncio.gather(*(
                    srv.handle_request(
                        {"id": i, "kind": "solve", "tenant": t, "spec": spec}
                    )
                    for i, (t, spec) in enumerate(jobs)
                ))
            finally:
                await srv.aclose()

        responses = asyncio.run(run())
        for (_, spec), response in zip(jobs, responses):
            assert response["ok"], response
            out, want = response["result"], direct[spec["seed"]]
            assert out["op_counts"]["M2M"] > 0
            keys = ("velocity",) if spec["kernel"] == "stokeslet" else (
                "potential", "gradient")
            for key in keys:
                assert np.array_equal(out[key], want[key]), (spec, key)
        assert peak[0] == 2
        # round-robin starts: first-come order would run a, a, a, a, b, ...;
        # two threads picking up at once may swap a pair, never more
        order = [tenant_of[seed] for seed in starts]
        assert sorted(order) == sorted(t for t, _ in jobs)
        for k in range(1, len(order) + 1):
            assert abs(order[:k].count("a") - order[:k].count("b")) <= 2, order

    def test_solver_threads_never_read_the_tenant_queues(self, tmp_path):
        """The queues belong to the loop: nothing a solver thread runs —
        the solve, the ledger record — touches them (a record that did
        could raise mid-iteration and be dropped), and two threads leave
        one whole ledger line per served request, keyed by request id."""
        from collections import OrderedDict

        from repro.serve.server import JobServer

        loop_thread = threading.get_ident()
        strays = []

        class LoopOnly(OrderedDict):
            pass

        def guarded(name):
            method = getattr(OrderedDict, name)

            def call(self, *args, **kwargs):
                if threading.get_ident() != loop_thread:
                    strays.append((name, threading.current_thread().name))
                return method(self, *args, **kwargs)

            return call

        for name in (
            "__iter__", "__contains__", "__getitem__", "__delitem__", "__len__",
            "keys", "values", "items", "get", "setdefault", "move_to_end", "pop",
        ):
            setattr(LoopOnly, name, guarded(name))

        ledger = tmp_path / "serve_runs.jsonl"
        jobs = [(t, dict(LAPLACE, seed=i)) for i in range(6) for t in ("x", "y")]

        async def run():
            srv = JobServer(ServeConfig(pool_size=2, ledger_path=str(ledger)))
            srv.scheduler._queues = LoopOnly()
            try:
                return await asyncio.gather(*(
                    srv.handle_request(
                        {"id": f"r{i}", "kind": "solve", "tenant": t, "spec": spec}
                    )
                    for i, (t, spec) in enumerate(jobs)
                ))
            finally:
                await srv.aclose()

        responses = asyncio.run(run())
        assert all(r["ok"] for r in responses)
        assert strays == []
        records = [json.loads(s) for s in ledger.read_text().splitlines()]
        assert len(records) == len(jobs)
        served = {(r["extra"]["serve"]["tenant"], r["extra"]["serve"]["request_id"])
                  for r in records}
        assert served == {(t, f"r{i}") for i, (t, _) in enumerate(jobs)}
        for rec in records:
            serve = rec["extra"]["serve"]
            assert 0 <= serve["queue_depth"] < len(jobs)
            assert 1 <= serve["active_tenants"] <= 2

    def test_a_served_request_builds_no_engine(
        self, monkeypatch, direct_results, far_field
    ):
        """Every served request runs the serial sweep: a Laplace solve and
        a Stokeslet solve both finish, bitwise equal to their direct runs,
        with both engines unconstructible."""
        from repro.runtime.engine import ExecutionEngine
        from repro.runtime.shards import ProcessEngine

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"a served request built {type(self).__name__}")

        monkeypatch.setattr(ExecutionEngine, "__init__", refuse)
        monkeypatch.setattr(ProcessEngine, "__init__", refuse)
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            laplace = c.solve(LAPLACE, tenant="t")
            stokes = c.solve(STOKES, tenant="t")
        assert np.array_equal(laplace["potential"], direct_results["laplace"]["potential"])
        assert np.array_equal(stokes["velocity"], direct_results["stokeslet"]["velocity"])

    def test_reply_and_ledger_name_the_chosen_S(self, tmp_path):
        """A one-shot reply and its ledger record carry the S the request
        was solved at.  Two specs whose chosen S is not 32, a Laplace and a
        Stokeslet one, solve at once on two solver threads — far field and
        all, over one shared operator store — and are served bitwise equal
        to ``solve_direct``; two fresh servers choose the same S."""
        from repro.serve.server import JobServer

        direct = [solve_direct(spec) for spec in CHOSEN_NOT_32]
        for spec, want in zip(CHOSEN_NOT_32, direct):
            assert want["S"] != 32 and want["op_counts"]["M2L"] > 0, spec

        async def serve(ledger):
            srv = JobServer(ServeConfig(pool_size=2, ledger_path=str(ledger)))
            try:
                return await asyncio.gather(*(
                    srv.handle_request({"id": i, "kind": "solve", "tenant": f"t{i}",
                                        "spec": spec})
                    for i, spec in enumerate(CHOSEN_NOT_32)
                ))
            finally:
                await srv.aclose()

        chosen = []
        for run in range(2):
            ledger = tmp_path / f"serve_runs.{run}.jsonl"
            responses = asyncio.run(serve(ledger))
            records = {
                r["extra"]["serve"]["request_id"]: r["extra"]["serve"]
                for r in map(json.loads, ledger.read_text().splitlines())
            }
            assert sorted(records) == list(range(len(CHOSEN_NOT_32)))
            for i, (response, want) in enumerate(zip(responses, direct)):
                assert response["ok"], response
                out = response["result"]
                assert out["S"] == records[i]["S"] == want["S"]
                keys = ("velocity",) if out["kernel"] == "stokeslet" else (
                    "potential", "gradient")
                for key in keys:
                    assert np.array_equal(out[key], want[key]), (i, key)
            chosen.append([response["result"]["S"] for response in responses])
        assert chosen[0] == chosen[1]

    @pytest.mark.parametrize("kernel", ["laplace", "stokeslet"])
    @pytest.mark.parametrize("n", [300, 2000])
    def test_chosen_S_is_no_less_accurate_than_32(self, n, kernel, monkeypatch):
        """Gradient (Laplace) or velocity (Stokeslet) relative error against
        direct summation at the chosen S is at most that of the same spec
        solved at S = 32."""
        from repro.kernels.direct import direct_evaluate
        from repro.kernels.laplace import GravityKernel
        from repro.kernels.stokeslet import RegularizedStokesletKernel
        from repro.serve import server

        spec = SolveSpec.from_dict({"kernel": kernel, "n": n, "seed": 11, "order": 3})
        particles, _ = server._build_particles(spec)
        pts = particles.positions
        if kernel == "laplace":
            key = "gradient"
            exact = direct_evaluate(
                GravityKernel(G=1.0, softening=1e-3), pts, pts, particles.strengths,
                gradient=True, exclude_self=True,
            )
        else:
            key = "velocity"
            forces = np.random.default_rng(spec.seed).standard_normal((n, 3))
            exact = direct_evaluate(
                RegularizedStokesletKernel(), pts, pts, forces, exclude_self=True
            )

        def error(result):
            return np.linalg.norm(result[key] - exact) / np.linalg.norm(exact)

        chosen = solve_direct(spec)
        monkeypatch.setattr(server, "choose_leaf_size", _at_32)
        fixed = solve_direct(spec)
        assert fixed["S"] == 32
        assert error(chosen) <= error(fixed), (chosen["S"], error(chosen), error(fixed))

    def test_deadline_returns_408_and_pool_survives(self, direct_results, far_field):
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
        so a cold 2 ms request is refused during tree / list / geometry
        build, within one stage of its budget (the clock used to start
        after all three; 5 ms now sometimes outlasts them, ~4-5 ms here,
        and expires at the near plan).  It is solved at S = 32, where it
        has a far field and so a geometry to build: at the S the cost
        model picks (512) it has none, and its setup ends in ~2 ms.  A
        warm 10 ms request is refused after the queue, at the
        stage where its budget runs out (the test drives the deadlines'
        clock: it stands still, and the list build spends the whole
        budget); and a deadline that does not expire
        does not change how — or on what — the request is solved."""
        from repro.runtime.engine import ExecutionEngine
        from repro.serve import server
        from repro.tree.cache import ListCache
        from repro.util import timing

        spec = {"kernel": "laplace", "n": 2000, "order": 3, "seed": 5}
        hasty = SolveSpec.from_dict({**spec, "deadline_s": 0.002})
        walls = []
        for _ in range(3):  # every attempt is cold: its own operator store
            t0 = time.perf_counter()
            with monkeypatch.context() as m, pytest.raises(ServeError) as ei:
                m.setattr(server, "choose_leaf_size", _at_32)
                server._solve_core(hasty, deadline_s=0.002)
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
            now = [0.0]
            get = ListCache.get

            def spending_get(self, *args, **kwargs):
                now[0] += 1.0
                return get(self, *args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(timing, "clock", lambda: now[0])
                m.setattr(ListCache, "get", spending_get)
                with pytest.raises(ServeError) as ei:
                    c.solve({**spec, "deadline_s": 0.01, "seed": 6}, tenant="t")
            assert ei.value.code == 408 and ei.value.details["phase"] != "queue"
            assert ei.value.details["phase"] == "lists"
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

    @pytest.mark.parametrize("pool_size, admitted", [(1, 1), (2, 3)])
    def test_shed_budget_bounds_predicted_drain_time(self, pool_size, admitted):
        """The budget bounds predicted drain time: queued + in-flight + new
        predicted seconds over ``pool_size`` (the governor learns walls of
        solves sharing the cores).  At 0.6 s a job and a 1.0 s budget one
        thread admits one job and two threads admit three."""

        async def run():
            fake = _Recorder(*range(1, 6))
            sched = FairScheduler(fake, pool_size=pool_size, shed_budget_s=1.0)
            sched.governor.predict = lambda spec: 0.6
            futures = []
            with pytest.raises(ServeError) as ei:
                for seed in range(1, 6):
                    futures.append(sched.submit(f"t{seed}", SolveSpec(n=10, seed=seed)))
            for gate in fake.gates.values():
                gate.set()
            await asyncio.gather(*futures)
            await sched.close()
            return len(futures), ei.value, sched.shed_total

        n_admitted, err, shed_total = asyncio.run(run())
        assert n_admitted == admitted and shed_total == 1
        assert err.code == 429 and err.kind == "shed"
        assert err.details["pool_size"] == pool_size
        assert err.details["queued_s"] == pytest.approx(0.6 * admitted)
        assert err.details["budget_s"] == 1.0

    def test_tenant_limit_is_structured_429(self, monkeypatch):
        from repro.serve import server

        # tenant "a" stays active until "b" has been refused: held in the
        # solve, not raced against how fast a solve is
        real, release = server._solve_core, threading.Event()

        def held(spec, **kwargs):
            assert release.wait(30)
            return real(spec, **kwargs)

        monkeypatch.setattr(server, "_solve_core", held)
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
            release.set()
            t.join()
            assert "out" in holder

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
        async def run():
            sched = FairScheduler(lambda job: None, pool_size=1)
            await sched.close()
            with pytest.raises(ServeError) as ei:
                sched.submit("t", SolveSpec(n=10))
            assert ei.value.code == 503 and ei.value.kind == "shutdown"

        asyncio.run(run())

    def test_serve_ledger_records_one_line_per_solve(self, tmp_path, far_field):
        """At S = 32, where 300 bodies have a far field (120 had none), so
        the second solve reads the operator set the first assembled."""
        ledger = tmp_path / "serve_runs.jsonl"
        cfg = ServeConfig(pool_size=1, ledger_path=str(ledger))
        with BackgroundServer(cfg, tcp=False) as bg:
            c = bg.client(in_process=True)
            c.solve({"kernel": "laplace", "n": 300, "seed": 2}, tenant="led")
            c.solve({"kernel": "laplace", "n": 300, "seed": 2}, tenant="led")
        lines = [
            json.loads(s) for s in ledger.read_text().splitlines() if s.strip()
        ]
        assert len(lines) == 2
        # each record names the protocol request it answered
        assert [rec["extra"]["serve"]["request_id"] for rec in lines] == [1, 2]
        for rec in lines:
            assert rec["bench"] == "serve"
            serve = rec["extra"]["serve"]
            assert serve["tenant"] == "led"
            assert serve["spec"]["n"] == 300
            assert rec["metrics"]["wall_s"] > 0
            # every line says which P2P body made its numbers
            assert rec["machine"]["p2p_kernel"] == p2p_backend()
        # the second solve read the set the first one assembled
        assert lines[1]["extra"]["serve"]["opcache"]["hits"] > 0

    def test_ledger_job_ids_are_distinct_across_clients(self, tmp_path):
        """Every client numbers its requests from 1, so two clients of one
        tenant repeat ``(tenant, request_id)``; the server's ``job_id`` is
        the join key that stays unique."""
        ledger = tmp_path / "serve_runs.jsonl"
        cfg = ServeConfig(pool_size=1, ledger_path=str(ledger))
        with BackgroundServer(cfg, tcp=False) as bg:
            for client in (bg.client(in_process=True), bg.client(in_process=True)):
                for seed in (1, 2):
                    client.solve({"kernel": "laplace", "n": 120, "seed": seed},
                                 tenant="same")
        serve = [json.loads(s)["extra"]["serve"] for s in ledger.read_text().splitlines()]
        assert sorted(r["request_id"] for r in serve) == [1, 1, 2, 2]
        assert sorted(r["job_id"] for r in serve) == [1, 2, 3, 4]

    def test_metrics_gauges_exported(self):
        """The health figures are ``status`` fields (a request's wall time
        is the ledger's ``wall_s``, checked beside this test)."""
        with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
            c = bg.client(in_process=True)
            c.solve({"kernel": "laplace", "n": 80}, tenant="m")
            status = c.status()
        assert status["queue_depth"] == 0
        assert status["active_tenants"] == 0
        # the solve, then the status request itself
        assert status["requests_total"] == 2
        assert status["shed_total"] == 0
        assert status["deadline_total"] == 0


# ---------------------------------------------------- operator stats plumbing
class TestOperatorStatsUniformity:
    def test_farfield_stats_expose_op_counters_with_either_cache(self):
        """op_builds / op_hits read the same whether the lists' store is the
        ListCache's own or one shared between caches."""
        from repro.distributions.generators import compact_plummer
        from repro.expansions.cartesian import CartesianExpansion
        from repro.expansions.operators import OperatorStore
        from repro.fmm.farfield import laplace_far_field
        from repro.geometry.box import Box
        from repro.tree.cache import ListCache
        from repro.tree.octree import AdaptiveOctree

        ps = compact_plummer(300, seed=0)
        tree = AdaptiveOctree(ps.positions, 32, root_box=Box((0, 0, 0), 1.0))
        expansion = CartesianExpansion(3)

        # the cache's own store
        lists = ListCache().get(tree)
        out_direct, _ = laplace_far_field(tree, lists, expansion, charges=ps.strengths)
        stats = lists.farfield_geometry_stats
        assert (stats["op_builds"], stats["op_hits"]) == (15, 0)  # 2 shift stacks + 13 blocks

        # a shared store, passed at construction: first user assembles ...
        shared = OperatorStore()
        lists2 = ListCache(operators=shared).get(tree)
        laplace_far_field(tree, lists2, expansion, charges=ps.strengths)
        assert lists2.farfield_geometry_stats["op_builds"] == 15

        # ... and a second cache over the same root size reads
        lists3 = ListCache(operators=shared).get(tree)
        out_shared, _ = laplace_far_field(tree, lists3, expansion, charges=ps.strengths)
        assert lists3.farfield_geometry_stats["op_builds"] == 0
        assert lists3.farfield_geometry_stats["op_hits"] > 0
        assert np.array_equal(out_shared, out_direct)
        assert shared.stats()["entries"] == 1


# ------------------------------------------------------------ retained memory
#: what 41 answered requests may leave behind once collected (~45 KB of
#: allocator and cache warm-up that stops growing, on x86-64 CPython
#: 3.11); requests that kept their trace events (~12 per solve)
#: retained ~540 KB here
RETAINED_BOUND_BYTES = 128 << 10


def test_served_requests_retain_nothing():
    """Nothing of an answered request outlives it: the server keeps
    counters and the warm operator store, not per-request records."""
    import gc
    import tracemalloc

    def spec(i):
        kernel = "stokeslet" if i % 5 == 4 else "laplace"
        return {"kernel": kernel, "n": 300, "order": 3, "seed": i}

    with BackgroundServer(ServeConfig(pool_size=1), tcp=False) as bg:
        c = bg.client(in_process=True)
        # warm every path the measured requests take: both kernels
        # (imports, the operator set, compiled kernels)
        for i in range(5):
            c.solve(spec(i))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(40):
                c.solve(spec(100 + i))
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
    assert grown < RETAINED_BOUND_BYTES, (
        f"40 served requests retained {grown} bytes "
        f"(bound {RETAINED_BOUND_BYTES})"
    )
