"""Serve benchmark gate: a cold served solve costs at most 1.5x a warm one.

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

The timing gate needs real cores to be meaningful under the asyncio
loop + pool threads; below 4 usable CPUs it is skipped.  The *bitwise*
assertion — served results (cold AND warm) equal the direct
:func:`~repro.serve.server.solve_direct` baseline — runs everywhere,
because an oversubscribed box is where cross-thread store races would
corrupt an operator if they could.

Results append to ``BENCH_serve.json`` and the run ledger, where
``python -m repro regress`` tracks ``warm_ms``.
"""

import gc
import json
import os
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
