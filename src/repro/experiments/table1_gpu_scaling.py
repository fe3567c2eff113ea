"""Table I — GPU scaling for a fixed workload.

"The data collected in this table was for a fixed workload of 10 million
bodies arranged in a Plummer distribution.  The S chosen was the S which
minimized the total runtime for the system when utilizing 10 CPU cores
and 1 GPU.  The problem was carried out with this same S value while
varying the number of GPUs utilized."

Speedup is the 1-GPU near-field kernel time divided by the k-GPU time
(max over kernels, §VII-A), using the paper's interaction-count
partitioner.
"""

from __future__ import annotations

from repro.distributions.generators import plummer
from repro.experiments.common import default_kernel, geometric_s_values, hetero_executor, optimal_s
from repro.gpu.model import GPUKernelModel
from repro.gpu.partition import near_field_work_items, partition_targets
from repro.machine.spec import system_a
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import build_adaptive
from repro.util.records import EventLog

__all__ = ["run", "main"]


def run(
    *,
    n: int = 50000,
    gpu_counts: tuple[int, ...] = (1, 2, 3, 4),
    order: int = 4,
    seed: int = 0,
    S: int | None = None,
) -> EventLog:
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    if S is None:
        ex1 = hetero_executor(n_cores=10, n_gpus=1, order=order, kernel=kernel)
        S, _, _ = optimal_s(ps.positions, ex1, geometric_s_values(32, 2048, 12))
    tree = build_adaptive(ps.positions, S)
    lists = build_interaction_lists(tree)
    items = near_field_work_items(lists)
    machine = system_a()
    models = [GPUKernelModel(g) for g in machine.gpus]
    base_time = None
    log = EventLog()
    for k in gpu_counts:
        parts = partition_targets(items, k)
        timings = [m.time_items(p) for m, p in zip(models[:k], parts)]
        t = max(x.kernel_time for x in timings)
        if base_time is None:
            base_time = t
        per_gpu_inter = [x.interactions for x in timings]
        imbalance = (
            max(per_gpu_inter) / (sum(per_gpu_inter) / k) if sum(per_gpu_inter) else 1.0
        )
        log.add(
            n_gpus=k,
            kernel_time=t,
            speedup=base_time / t,
            interaction_imbalance=imbalance,
            S=S,
        )
    return log


def main(**kwargs) -> EventLog:
    log = run(**kwargs)
    print("Table I — GPU scaling for a fixed workload (S fixed at the 10C+1G optimum)")
    print(log.to_table(["n_gpus", "kernel_time", "speedup", "interaction_imbalance"]))
    return log


if __name__ == "__main__":
    main()
