"""Mixed-n admission replay: how well the serve governor prices requests.

Serves a stream of one-shot requests through a live in-process
``BackgroundServer(pool_size=1)`` with a ledger, then prints, per
(kernel, order, n) cell, the median of the ledger's ``predicted_s /
wall_s`` and the median wall.  A round is every cell once, order 3 then
5, n ascending, Laplace before Stokeslet; each request draws a fresh
seed, so the governor prices bodies it has not seen.  The first
``DROP`` rounds are the cold start and are left out.

    PYTHONPATH=src python benchmarks/admission_replay.py [ROUNDS [OUT.json]]

Run it in two checkouts to compare their governors on one stream.
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
from pathlib import Path

from repro.serve import BackgroundServer, ServeConfig

NS = (500, 2000, 5000, 20000)
KERNELS = ("laplace", "stokeslet")
ORDERS = (3, 5)
DROP = 2


def replay(rounds: int) -> dict[str, dict[str, list[float]]]:
    """``{"kernel,order,n": {"ratio": [...], "wall": [...]}}`` over the
    rounds after the first ``DROP``."""
    with tempfile.TemporaryDirectory() as tmp:
        ledger = Path(tmp) / "ledger.jsonl"
        seed = 1000
        with BackgroundServer(ServeConfig(pool_size=1, ledger_path=str(ledger)), tcp=False) as bg:
            client = bg.client(in_process=True)
            for _ in range(rounds):
                for order in ORDERS:
                    for n in NS:
                        for kernel in KERNELS:
                            seed += 1
                            client.solve({"kernel": kernel, "n": n, "order": order, "seed": seed})
        records = [json.loads(line) for line in ledger.read_text().splitlines()]
    records.sort(key=lambda r: r["extra"]["serve"]["job_id"])
    per_round = len(NS) * len(KERNELS) * len(ORDERS)
    cells: dict[str, dict[str, list[float]]] = {}
    for rec in records[DROP * per_round:]:
        spec, m = rec["extra"]["serve"]["spec"], rec["metrics"]
        cell = cells.setdefault(f'{spec["kernel"]},{spec["order"]},{spec["n"]}',
                                {"ratio": [], "wall": []})
        cell["ratio"].append(m["predicted_s"] / m["wall_s"])
        cell["wall"].append(m["wall_s"])
    return cells


if __name__ == "__main__":
    rounds, *rest = sys.argv[1:] or ["22"]
    cells = replay(int(rounds))
    for key, cell in cells.items():
        print(f"{key:22s} predicted/wall {statistics.median(cell['ratio']):.3f}  "
              f"wall {1e3 * statistics.median(cell['wall']):.1f} ms  ({len(cell['ratio'])})")
    if rest:
        Path(rest[0]).write_text(json.dumps(cells))
