"""Serve benchmark gates: cold start is no cliff; a second slot is free.

Sharing operators across requests used to be the server's economic
claim: a cold request paid ~1.4 s of per-class M2L operator builds that
every later request skipped (~10x).  Today a request's operators are one
:class:`~repro.expansions.operators.OperatorSet` (8 + 8 shifts, 13 blocks;
DESIGN.md section 9) assembled in ~10 ms at order 3, so the contract this
gate holds is the opposite one: **cold start is no longer a cliff**.  It
serves the same spec through a live in-process server — cold on an empty
operator store, then warm — and requires ``cold_ms <= 1.5 * warm_ms``,
plus nonzero store hits (the sharing still has to work, it just stopped
being what a cold request waits for) and records the operators per set.

That timing gate compares two single ~40 ms requests, which a busy
2-CPU box cannot resolve (last record there: 1.41 against 1.5); below 4
usable CPUs it is skipped.  The *bitwise* assertion — served results
(cold AND warm) equal the direct
:func:`~repro.serve.server.solve_direct` baseline — runs everywhere.
Results append to ``BENCH_serve.json`` and the run ledger, where
``python -m repro regress`` tracks ``warm_ms``.

The second gate is one two CPUs can decide: the scheduler runs jobs on
one solver thread, so ``pool_size=2`` (a second job dispatched ahead)
must serve a closed loop of 2 clients at >= 0.85x the requests/s of
``pool_size=1``.  When the second slot was a second solving thread it
read ~0.47x (two threads over ~8 us NumPy calls trade the interpreter
lock).  Every served result is compared bitwise with ``solve_direct``;
both rates go to the run ledger only.
"""

import gc
import json
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import _ledger
from repro.serve import BackgroundServer, ServeConfig, solve_direct

_BENCH_SERVE = Path(__file__).resolve().parents[1] / "BENCH_serve.json"

SPEC = {"kernel": "laplace", "n": 2000, "seed": 11, "order": 3}


def _available_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _timed(fn):
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = fn()
        return out, time.perf_counter() - t0
    finally:
        gc.enable()


def test_bench_serve_warm_vs_cold(benchmark):
    """Cold served solve <= 1.5x warm; operators still shared bitwise."""
    avail = _available_cpus()
    gate_skipped = avail < 4

    direct = solve_direct(SPEC)

    with BackgroundServer(
        ServeConfig(pool_size=2, shed_budget_s=3600.0), tcp=False
    ) as bg:
        client = bg.client(in_process=True)
        cold_out, cold_t = _timed(lambda: client.solve(SPEC, tenant="bench"))
        warm_out, warm_t = _timed(lambda: client.solve(SPEC, tenant="bench"))
        # best-of-2 for the warm number; the cold number is by nature
        # unrepeatable within one server lifetime
        warm_out2, warm_t2 = _timed(lambda: client.solve(SPEC, tenant="other"))
        warm_t = min(warm_t, warm_t2)
        benchmark.pedantic(
            lambda: client.solve(SPEC, tenant="bench"), rounds=1, iterations=1
        )
        stats = client.status()["opcache"]

    # bitwise identity runs unconditionally — cold, warm, and cross-tenant
    for out in (cold_out, warm_out, warm_out2):
        assert np.array_equal(out["potential"], direct["potential"]), (
            "served result drifted from the direct baseline bitwise"
        )
        assert np.array_equal(out["gradient"], direct["gradient"])
    assert stats["hits"] > 0, "warm solves never read the shared operator set"
    (ops,) = bg.server.operators._sets.values()  # one domain, one order: one set

    cold_over_warm = cold_t / warm_t
    record = {
        "bench": "serve_warm_vs_cold_2k",
        "n": SPEC["n"],
        "order": SPEC["order"],
        "cpu_count": os.cpu_count(),
        "cpu_available": avail,
        "gate_skipped": gate_skipped,
        "cold_ms": round(cold_t * 1e3, 3),
        "warm_ms": round(warm_t * 1e3, 3),
        "cold_over_warm": round(cold_over_warm, 2),
        "operator_sets": stats["entries"],
        "operators_per_set": len(ops),
        "operator_set_bytes": stats["bytes"],
        "operator_set_hits": stats["hits"],
        "bitwise_identical": True,
    }
    history = []
    if _BENCH_SERVE.exists():
        history = json.loads(_BENCH_SERVE.read_text())
    history.append(record)
    _BENCH_SERVE.write_text(json.dumps(history, indent=2) + "\n")
    _ledger.record_to_ledger(record)

    print()
    print(
        f"serve warm-vs-cold, n={SPEC['n']} order={SPEC['order']}: "
        f"cold {cold_t * 1e3:.0f} ms, warm {warm_t * 1e3:.0f} ms -> "
        f"{cold_over_warm:.2f}x ({stats['entries']} operator set of "
        f"{len(ops)}, {stats['bytes'] >> 10} KiB)"
    )
    if gate_skipped:
        pytest.skip(
            f"cold-vs-warm gate needs >= 4 usable CPUs (have {avail}); "
            "bitwise equality verified above"
        )
    assert cold_over_warm <= 1.5, (
        f"cold solve {cold_over_warm:.2f}x a warm one — operator assembly "
        "is a cold-start cliff again"
    )


def _mix_spec(client, i):
    """The ``serve_mix`` request mix: n=2000, order 3, every 5th Stokeslet;
    ten distinct specs, so every result has a direct baseline."""
    kernel = "stokeslet" if i % 5 == 4 else "laplace"
    return {"kernel": kernel, "n": 2000, "order": 3, "seed": 100 * client + i % 5}


def _closed_loop(pool_size, seconds, direct):
    """(requests served, wall) for 2 clients on a fresh live TCP server."""
    served = [0, 0]
    with BackgroundServer(
        ServeConfig(pool_size=pool_size, shed_budget_s=3600.0), tcp=True
    ) as bg:

        def client_loop(c):
            with bg.client() as client:
                i = 0
                while time.perf_counter() < t_end:
                    spec = _mix_spec(c, i)
                    out = client.solve(spec, tenant=f"tenant-{c}")
                    for key, want in direct[c, i % 5].items():
                        if isinstance(want, np.ndarray):
                            assert np.array_equal(out[key], want), (spec, key)
                    served[c] += 1
                    i += 1

        with bg.client() as warm:  # the operator set, outside the window
            warm.solve(_mix_spec(0, 0), tenant="warm")
        threads = [threading.Thread(target=client_loop, args=(c,)) for c in (0, 1)]
        t0 = time.perf_counter()
        t_end = t0 + seconds
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        status = bg.client(in_process=True).status()
    assert status["failed_total"] == 0 and status["shed_total"] == 0
    assert status["served_total"] == sum(served) + 1
    return sum(served), wall


def test_bench_serve_second_slot_costs_no_throughput(benchmark):
    """Closed loop of 2 clients: rps at pool_size=2 >= 0.85x rps at 1."""
    direct = {
        (c, i): solve_direct(_mix_spec(c, i)) for c in (0, 1) for i in range(5)
    }
    served = {1: 0, 2: 0}
    wall = {1: 0.0, 2: 0.0}
    for pool_size in (1, 2, 2, 1):  # alternating, ~2 s a side
        n, w = _closed_loop(pool_size, 1.0, direct)
        served[pool_size] += n
        wall[pool_size] += w
    # the fixture must run or --benchmark-only skips the gate
    benchmark.pedantic(lambda: solve_direct(_mix_spec(0, 0)), rounds=1, iterations=1)

    rps = {k: served[k] / wall[k] for k in (1, 2)}
    ratio = rps[2] / rps[1]
    _ledger.record_to_ledger(
        {
            "bench": "serve_second_slot_2k",
            "cpu_count": os.cpu_count(),
            "cpu_available": _available_cpus(),
            "gate_skipped": False,
            "rps_pool1": round(rps[1], 2),
            "rps_pool2": round(rps[2], 2),
            "pool2_over_pool1": round(ratio, 3),
            "bitwise_identical": True,
        }
    )
    print()
    print(
        f"serve closed loop, 2 clients: pool_size=1 {rps[1]:.1f} req/s, "
        f"pool_size=2 {rps[2]:.1f} req/s -> {ratio:.2f}x"
    )
    assert ratio >= 0.85, (
        f"pool_size=2 serves {ratio:.2f}x the requests/s of pool_size=1 — "
        "a second dispatch slot is costing throughput again"
    )
