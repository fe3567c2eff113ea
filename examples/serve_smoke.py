"""Serve smoke: a live job server under concurrent mixed-tenant load.

Starts the asyncio job server in-process (real TCP listener on an
OS-assigned port), fires concurrent solve requests from several tenants
— Laplace one-shots, a Stokeslet solve, and a spherical-back-end Laplace
solve large enough to have V pairs, so the far sweep runs — and asserts
every served result is *bitwise* identical to a direct solver run of the
same spec.  Prints the server's status (queue / tenant /
operator-store stats) at the end.  This is the script the CI ``serve`` job
runs.

Run:  python examples/serve_smoke.py [n_bodies] [n_jobs]
"""

import sys
import threading
import time

import numpy as np

from repro.serve import BackgroundServer, ServeConfig, solve_direct


def main(n: int = 600, n_jobs: int = 8, ledger: str | None = None) -> None:
    specs = {
        "laplace": {"kernel": "laplace", "n": n, "seed": 3, "order": 3},
        "stokeslet": {"kernel": "stokeslet", "n": max(100, n // 3), "seed": 5},
        # enough bodies that the canonical cloud's tree has V pairs
        "spherical": {"kernel": "laplace", "n": max(3000, n), "seed": 7,
                      "backend": "spherical"},
    }
    print("computing direct baselines ...")
    direct = {name: solve_direct(spec) for name, spec in specs.items()}

    kinds = ["laplace", "stokeslet", "spherical"]
    jobs = [(f"tenant-{i % 4}", kinds[i % len(kinds)]) for i in range(n_jobs)]
    results: list[dict | None] = [None] * len(jobs)
    errors: list[BaseException] = []

    config = ServeConfig(pool_size=2, max_tenants=8, shed_budget_s=3600.0,
                         ledger_path=ledger)
    with BackgroundServer(config) as bg:
        print(f"server listening on {config.host}:{bg.port}")

        def run(i: int, tenant: str, kind: str) -> None:
            try:
                with bg.client() as client:
                    results[i] = client.solve(specs[kind], tenant=tenant)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)

        t0 = time.perf_counter()
        threads = [
            threading.Thread(target=run, args=(i, tenant, kind))
            for i, (tenant, kind) in enumerate(jobs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        status = bg.client(in_process=True).status()

    assert not errors, f"requests failed: {errors!r}"
    checked = 0
    for out, (_, kind) in zip(results, jobs):
        assert out is not None
        base = direct[kind]
        if kind == "stokeslet":
            assert np.array_equal(out["velocity"], base["velocity"])
        else:
            assert np.array_equal(out["potential"], base["potential"])
            assert np.array_equal(out["gradient"], base["gradient"])
        if kind == "spherical":
            assert out["op_counts"]["M2L"] > 0, out["op_counts"]
        checked += 1

    op = status["opcache"]
    print(
        f"served {status['served_total']} solves from "
        f"{len(set(t for t, _ in jobs))} tenants in {wall:.1f}s "
        f"(pool={config.pool_size} solver threads)"
    )
    print(
        f"operator store: {op['entries']} sets, {op['bytes'] >> 10} KiB, "
        f"{op['hits']} hits / {op['misses']} misses"
    )
    print(f"all {checked} served results bitwise identical to direct solves")
    print("done.")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 600,
        int(sys.argv[2]) if len(sys.argv) > 2 else 8,
        sys.argv[3] if len(sys.argv) > 3 else None,
    )
