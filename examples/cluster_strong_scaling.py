"""Distributed-memory what-if: how would this workload scale across nodes?

Uses the §II extension (SFC partitioning + locally essential trees +
cluster timing model) to answer deployment questions without a cluster:
given a workload and a node design, how many nodes are worth buying, and
where does the LET exchange start to eat the speedup?

Run:  python examples/cluster_strong_scaling.py [n_bodies] [max_nodes]
"""

import sys

from repro.cluster import ClusterSpec, DistributedExecutor, build_let, partition_by_morton_work
from repro.experiments.common import default_kernel
from repro import build_adaptive, build_interaction_lists, plummer, system_a


def main(n: int = 50000, max_nodes: int = 32) -> None:
    ps = plummer(n, seed=0)
    tree = build_adaptive(ps.positions, S=128)
    lists = build_interaction_lists(tree)
    node = system_a().with_resources(n_cores=10, n_gpus=4)
    kernel = default_kernel()

    print(f"workload: Plummer N={n}, node = {node.name}")
    print(f"{'nodes':>6} {'step ms':>9} {'speedup':>8} {'eff':>6} {'comm%':>6} {'halo MB':>8} {'imbal':>6}")
    base = None
    p = 1
    while p <= max_nodes:
        ex = DistributedExecutor(ClusterSpec(node=node, n_nodes=p), order=4, kernel=kernel)
        t = ex.time_step(tree, lists)
        if base is None:
            base = t.step_time
        speedup = base / t.step_time
        print(
            f"{p:>6} {t.step_time * 1e3:>9.3f} {speedup:>8.2f} {speedup / p:>6.2f} "
            f"{t.comm_fraction * 100:>5.1f}% {t.total_comm_bytes / 1e6:>8.2f} "
            f"{t.partition_imbalance:>6.2f}"
        )
        p *= 2

    # where the halo comes from, for the largest run
    part = partition_by_morton_work(tree, lists, max_nodes, order=4, kernel=kernel)
    let = build_let(part, n_coeffs=35)
    worst = max(range(max_nodes), key=lambda r: let.recv_bytes(r, tree))
    print(
        f"\nbusiest rank at {max_nodes} nodes: rank {worst} receives "
        f"{let.recv_bytes(worst, tree) / 1e6:.2f} MB from "
        f"{let.recv_messages(worst)} senders "
        f"({len(let.remote_bodies[worst])} remote leaves, "
        f"{len(let.remote_multipoles[worst])} remote multipoles)"
    )


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 50000
    mx = int(sys.argv[2]) if len(sys.argv) > 2 else 32
    main(n, mx)
