"""Extension experiment — distributed-memory strong scaling (paper §II).

Not a figure from the paper: the paper forecasts that the single-node
method "can be extended to a distributed memory cluster using techniques
such as those in [13, 9]"; this harness builds that extension (SFC
partition + locally essential trees + a cluster timing model) and measures
strong scaling of one heterogeneous node design across 1..16 nodes.

Expected shape: near-linear speedup while per-rank work dominates, with
efficiency decaying as the LET exchange's share grows (surface-to-volume:
fewer bodies per rank => relatively more halo).
"""

from __future__ import annotations

from repro.cluster.model import ClusterSpec, DistributedExecutor
from repro.distributions.generators import plummer
from repro.experiments.common import default_kernel
from repro.machine.spec import system_a
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import build_adaptive
from repro.util.records import EventLog

__all__ = ["run", "main"]


def run(
    *,
    n: int = 50000,
    S: int = 128,
    node_counts: tuple[int, ...] = (1, 2, 4, 8, 16),
    order: int = 4,
    seed: int = 0,
    overlap: float = 0.7,
) -> EventLog:
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    tree = build_adaptive(ps.positions, S)
    lists = build_interaction_lists(tree)
    node = system_a().with_resources(n_cores=10, n_gpus=4)
    base = None
    log = EventLog()
    for p in node_counts:
        cluster = ClusterSpec(node=node, n_nodes=p, overlap=overlap)
        ex = DistributedExecutor(cluster, order=order, kernel=kernel)
        t = ex.time_step(tree, lists)
        if base is None:
            base = t.step_time
        log.add(
            nodes=p,
            step_time=t.step_time,
            speedup=base / t.step_time,
            efficiency=base / t.step_time / p,
            comm_fraction=t.comm_fraction,
            partition_imbalance=t.partition_imbalance,
            comm_mbytes=t.total_comm_bytes / 1e6,
        )
    return log


def main(**kwargs) -> EventLog:
    log = run(**kwargs)
    print("Extension — distributed strong scaling (SFC partition + LET exchange)")
    print(
        log.to_table(
            ["nodes", "step_time", "speedup", "efficiency", "comm_fraction", "comm_mbytes"]
        )
    )
    return log


if __name__ == "__main__":
    main()
