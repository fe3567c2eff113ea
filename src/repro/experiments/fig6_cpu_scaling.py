"""Fig. 6 — CPU speedup vs core count on Test System B (32 cores, no GPU).

The paper runs 10M bodies in a Plummer distribution at fixed S on a
highly non-uniform octree (depth 16) and reports speedup relative to the
serial execution, observing slight superlinearity up to 16 cores (extra
L3 across sockets) and diminishing returns toward 32 (memory
saturation).

Our harness builds the real task DAG of the real tree (near field
included — System B has no GPUs) and simulates the work-stealing
scheduler at every core count.
"""

from __future__ import annotations

from repro.distributions.generators import plummer
from repro.experiments.common import default_kernel
from repro.machine.spec import system_b
from repro.runtime.scheduler import simulate_schedule
from repro.runtime.tasks import build_fmm_task_graph
from repro.tree.lists import build_interaction_lists
from repro.tree.octree import build_adaptive
from repro.util.records import EventLog

__all__ = ["run", "main"]


def run(
    *,
    n: int = 50000,
    S: int = 64,
    core_counts: tuple[int, ...] = (1, 2, 4, 8, 12, 16, 20, 24, 28, 32),
    order: int = 4,
    seed: int = 0,
) -> EventLog:
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    tree = build_adaptive(ps.positions, S)
    lists = build_interaction_lists(tree)
    graph = build_fmm_task_graph(
        tree, lists, order=order, kernel=kernel, include_near_field=True
    )
    cpu = system_b().cpu
    serial = simulate_schedule(graph, cpu, 1).makespan
    log = EventLog()
    for k in core_counts:
        if k > cpu.n_cores:
            continue
        res = simulate_schedule(graph, cpu, k)
        log.add(
            cores=k,
            time=res.makespan,
            speedup=serial / res.makespan,
            utilization=res.utilization,
            tree_depth=tree.depth(),
        )
    return log


def main(**kwargs) -> EventLog:
    log = run(**kwargs)
    print("Fig. 6 — CPU speedup vs cores (Plummer, fixed S, System B analog)")
    print(log.to_table(["cores", "time", "speedup", "utilization"]))
    return log


if __name__ == "__main__":
    main()
