"""Sweep served one-shot solves over the leaf-size ladder; fit and check the
frozen cost model of :mod:`repro.costmodel.leafsize`.

    PYTHONPATH=src python benchmarks/leafsize_sweep.py sweep sweep.jsonl [SEED [N,N,...]]
    PYTHONPATH=src python benchmarks/leafsize_sweep.py fit sweep.jsonl
    PYTHONPATH=src python benchmarks/leafsize_sweep.py regret sweep.jsonl [FIT.jsonl]

``sweep`` times the served solve path (``repro.serve.server._solve_core``
over a warm operator store, serial, BLAS pinned to one thread) for every
``(n, order, kernel)`` of the grid at every S of the ladder, the median of
several interleaved repetitions, and writes one JSON line per cell and S;
``SEED`` draws the bodies (default 1, the seed the frozen coefficients
were fitted on), and a list of n replaces the grid's.
``fit`` solves, per kernel, the least-squares fit of those walls on the
census regressors and prints the coefficients to freeze.  ``regret``
prints, per cell, the S the frozen model chooses, its wall over the best
ladder S's wall and over S = 32's, and the chooser's own cost; given the
sweep the model was fitted on (``FIT.jsonl``), it also prices the simpler
rule that table suggests: per kernel and order, the best S of the nearest
fitted n (in log n).
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import gc  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

NS = (500, 2000, 10_000, 20_000, 50_000)
ORDERS = (3, 5)
KERNELS = ("laplace", "stokeslet")
SEED = 1  # the bodies the coefficients were fitted on


def _reps(n: int) -> int:
    return 7 if n <= 2000 else 5 if n <= 10_000 else 3


def _bodies(n: int, seed: int):
    from repro.serve.protocol import SolveSpec
    from repro.serve.server import _build_particles

    particles, domain = _build_particles(SolveSpec(n=n, seed=seed))
    return particles.positions, domain


def _keys(n: int, seed: int) -> np.ndarray:
    from repro.geometry.morton import morton_keys

    points, domain = _bodies(n, seed)
    return morton_keys(points, domain.low, domain.size)


def sweep(path: str, seed: int, ns=NS) -> None:
    import repro.serve.server as server
    from repro.costmodel.leafsize import LEAF_SIZES
    from repro.expansions.operators import OperatorStore
    from repro.serve.protocol import SolveSpec
    from repro.tree.octree import AdaptiveOctree

    with open(path, "w") as out:
        for n in ns:
            points, domain = _bodies(n, seed)
            stats = {S: AdaptiveOctree(points, S, root_box=domain).stats() for S in LEAF_SIZES}
            for order in ORDERS:
                for kernel in KERNELS:
                    spec = SolveSpec(kernel=kernel, n=n, seed=seed, order=order)
                    store = OperatorStore()
                    walls = {S: [] for S in LEAF_SIZES}
                    counts = {}
                    for rep in range(_reps(n) + 1):  # the first round warms up
                        for S in LEAF_SIZES:
                            server.choose_leaf_size = lambda *_a, S=S: S
                            gc.collect()
                            t0 = time.perf_counter()
                            res = server._solve_core(spec, operators=store)
                            wall = time.perf_counter() - t0
                            if rep:
                                walls[S].append(wall)
                            counts[S] = res["op_counts"]
                    for S in LEAF_SIZES:
                        row = {
                            "n": n, "seed": seed, "order": order, "kernel": kernel, "S": S,
                            "wall_s": statistics.median(walls[S]), "walls": walls[S],
                            "P2P": counts[S]["P2P"], "M2L": counts[S]["M2L"],
                            "nodes": stats[S]["n_nodes"], "leaves": stats[S]["n_leaves"],
                        }
                        out.write(json.dumps(row) + "\n")
                        out.flush()
                    best = min(LEAF_SIZES, key=lambda S: statistics.median(walls[S]))
                    print(f"n={n} order={order} {kernel}: best S={best} "
                          + " ".join(f"{S}:{statistics.median(walls[S]) * 1e3:.1f}"
                                     for S in LEAF_SIZES), flush=True)


def _load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _with_census(rows: list[dict]) -> list[dict]:
    from repro.costmodel.leafsize import census

    by_n = {}
    for row in rows:
        key = row["n"], row["seed"]
        if key not in by_n:
            by_n[key] = census(_keys(*key))
        row["census"] = by_n[key][row["S"]]
    return rows


def fit(path: str) -> None:
    from repro.costmodel.leafsize import regressors

    rows = _with_census(_load(path))
    for kernel in KERNELS:
        picked = [r for r in rows if r["kernel"] == kernel]
        x = np.array([regressors(r["census"], r["order"]) for r in picked])
        y = np.array([r["wall_s"] for r in picked])
        # relative least squares: every cell's error counts alike
        coef, *_ = np.linalg.lstsq(x / y[:, None], np.ones_like(y), rcond=None)
        resid = x @ coef / y - 1.0
        print(f"{kernel}: coefficients {tuple(float(f'{c:.4g}') for c in coef)}; "
              f"relative residual median {np.median(np.abs(resid)):.3f}, "
              f"max {np.abs(resid).max():.3f}")


def regret(path: str, fit_path: str | None = None) -> None:
    from repro.costmodel.leafsize import LEAF_SIZES, choose_leaf_size

    rows = _load(path)
    (seed,) = {row["seed"] for row in rows}
    cells = {}
    for row in rows:
        cells.setdefault((row["n"], row["order"], row["kernel"]), {})[row["S"]] = row["wall_s"]
    table = {}  # (kernel, order) -> {fitted n: its best S}
    for row in _load(fit_path) if fit_path else ():
        table.setdefault((row["kernel"], row["order"]), {}).setdefault(row["n"], {})[
            row["S"]] = row["wall_s"]
    rule = " | nearest-n S | nearest-n / best" if table else ""
    print(f"| n | order | kernel | chosen S | best S | chosen / best | chosen / S=32{rule} |")
    print("|---|---|---|---|---|---|---|" + "---|---|" * bool(table))
    worst = {"chosen": 1.0, "nearest-n": 1.0}
    for (n, order, kernel), walls in sorted(cells.items()):
        S = choose_leaf_size(*_bodies(n, seed), order, kernel)
        best = min(LEAF_SIZES, key=walls.get)
        worst["chosen"] = max(worst["chosen"], walls[S] / walls[best])
        line = (f"| {n} | {order} | {kernel} | {S} | {best} | "
                f"{walls[S] / walls[best]:.3f} | {walls[S] / walls[32]:.3f} |")
        if table:
            fitted = table[kernel, order]
            near = fitted[min(fitted, key=lambda m: abs(np.log(m / n)))]
            S_rule = min(near, key=near.get)
            worst["nearest-n"] = max(worst["nearest-n"], walls[S_rule] / walls[best])
            line += f" {S_rule} | {walls[S_rule] / walls[best]:.3f} |"
        print(line)
    print("worst / best: " + ", ".join(
        f"{k} {v:.3f}" for k, v in worst.items() if k == "chosen" or table))
    print("| n | choose_leaf_size ms (median of 50) |")
    print("|---|---|")
    for n in sorted({n for n, _, _ in cells}):
        points, domain = _bodies(n, seed)
        choose_leaf_size(points, domain, 3, "laplace")
        times = []
        for _ in range(50):
            t0 = time.perf_counter()
            choose_leaf_size(points, domain, 3, "laplace")
            times.append(time.perf_counter() - t0)
        print(f"| {n} | {statistics.median(times) * 1e3:.3f} |")


if __name__ == "__main__":
    verb, path, *rest = sys.argv[1:]
    if verb == "sweep":
        ns = tuple(int(n) for n in rest[1].split(",")) if len(rest) > 1 else NS
        sweep(path, int(rest[0]) if rest else SEED, ns)
    else:
        {"fit": fit, "regret": regret}[verb](path, *rest)
