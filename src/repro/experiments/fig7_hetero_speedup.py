"""Fig. 7 / §VIII-E — heterogeneous node speedup as a function of S.

"As our baseline we used the time to run our implementation with a single
core. ... Both the expansion and direct work were run on this single
core.  The S chosen for this serial run was the S that minimized the time
for this single core case.  We then plotted speedup relative to this time
for the following cases: 1G+4C, 1G+10C, 2G+4C, 2G+10C, 4G+4C, 4G+10C."

Headline claims checked by the bench harness:

* ≈98x with 10 cores + 4 GPUs (we report our measured peak);
* the *underpowered-CPU* ordering: 10C+2G beats 4C+4G, and 10C+1G lands
  close to 4C+2G (§VIII-E's discussion of converting expansion work into
  asymptotically inferior direct work).
"""

from __future__ import annotations

from repro.distributions.generators import plummer
from repro.experiments.common import (
    default_kernel,
    geometric_s_values,
    hetero_executor,
    optimal_s,
    sweep_s,
)
from repro.machine.spec import single_core
from repro.machine.executor import HeterogeneousExecutor
from repro.util.records import EventLog

__all__ = ["CONFIGS", "run", "best_speedups", "main"]

#: (n_cores, n_gpus) pairs of Fig. 7
CONFIGS = ((4, 1), (10, 1), (4, 2), (10, 2), (4, 4), (10, 4))


def run(
    *,
    n: int = 50000,
    s_values: list[int] | None = None,
    order: int = 8,
    seed: int = 0,
) -> EventLog:
    # order=8 (165 Cartesian coefficients) matches the paper's spherical
    # precision (~(p+1)^2 > 100 retained terms); the per-body P2M/L2P floor
    # it implies is what caps the underpowered-CPU configurations (SVIII-E).
    ps = plummer(n, seed=seed)
    kernel = default_kernel()
    s_values = s_values or geometric_s_values(16, 2048, 12)

    serial_ex = HeterogeneousExecutor(single_core(), order=order, kernel=kernel)
    serial_S, serial_t, _ = optimal_s(ps.positions, serial_ex, s_values)

    log = EventLog()
    log.add(config="serial(1C)", S=serial_S, time=serial_t.compute_time, speedup=1.0)
    for n_cores, n_gpus in CONFIGS:
        ex = hetero_executor(n_cores=n_cores, n_gpus=n_gpus, order=order, kernel=kernel)
        for S, timing, _tree in sweep_s(ps.positions, ex, s_values):
            log.add(
                config=f"{n_cores}C_{n_gpus}G",
                S=S,
                time=timing.compute_time,
                speedup=serial_t.compute_time / timing.compute_time,
                cpu_time=timing.cpu_time,
                gpu_time=timing.gpu_time,
            )
    return log


def best_speedups(log: EventLog) -> dict[str, float]:
    """Peak speedup per configuration (max over the S sweep)."""
    best: dict[str, float] = {}
    for rec in log:
        cfg = rec["config"]
        if cfg == "serial(1C)":
            continue
        best[cfg] = max(best.get(cfg, 0.0), rec["speedup"])
    return best


def main(**kwargs) -> EventLog:
    log = run(**kwargs)
    print("Fig. 7 — heterogeneous speedup vs S (baseline: optimal serial 1-core run)")
    print(log.to_table(["config", "S", "time", "speedup"]))
    print("\npeak speedups per configuration:")
    for cfg, sp in sorted(best_speedups(log).items(), key=lambda kv: kv[1]):
        print(f"  {cfg:8s} {sp:7.1f}x")
    return log


if __name__ == "__main__":
    main()
