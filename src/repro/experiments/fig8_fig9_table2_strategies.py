"""Figs. 8–9 and Table II — dynamic workloads under three balancing
strategies (§IX-A).

The workload: a gravitational Plummer distribution "initially contained
within 1/64th of the simulation space", evolving over many time steps so
bodies expand and fall back toward the center of mass.  Strategies:

1. **static**  — optimal S chosen at the outset (binary search); the value
   of S is never changed and the tree structure never modified.
2. **enforce** — Enforce_S whenever the compute time runs more than 5%
   slower than the best time seen thus far.
3. **full**    — the complete Search/Incremental/Observation machinery with
   Enforce_S and FineGrainedOptimize.

Fig. 8 = per-step total time series; Fig. 9 = per-step S series;
Table II = totals, LB overhead %, and relative cost per step.
"""

from __future__ import annotations

import numpy as np

from repro.balance.config import BalancerConfig
from repro.distributions.generators import compact_plummer
from repro.kernels.laplace import GravityKernel
from repro.machine.spec import system_a
from repro.sim.driver import Simulation, SimulationConfig
from repro.util.records import EventLog

__all__ = ["STRATEGIES", "run", "table2", "main"]

STRATEGIES = ("static", "enforce", "full")


def run(
    *,
    n: int = 2000,
    steps: int = 300,
    dt: float = 1e-4,
    order: int = 3,
    n_cores: int = 10,
    n_gpus: int = 4,
    seed: int = 0,
    forces: str = "direct",
    strategies: tuple[str, ...] = STRATEGIES,
    velocity_scale: float = 1.5,
) -> dict[str, EventLog]:
    """Run the three strategies on identical initial conditions.

    The cluster starts compact (1/64th of the domain) and *hot*
    (``velocity_scale`` > 1 puts it above virial equilibrium), so it
    expands through the simulation space and partially falls back — the
    significantly-evolving workload of §IX-A.  ``dt`` resolves the
    cluster's dynamical time (~1e-3 at unit total mass and 1/80-domain
    scale radius).
    """
    machine = system_a().with_resources(n_cores=n_cores, n_gpus=n_gpus)
    out: dict[str, EventLog] = {}
    for strategy in strategies:
        # fresh identical initial conditions per run
        ps = compact_plummer(n, seed=seed, total_mass=1.0, velocity_scale=velocity_scale)
        kernel = GravityKernel(G=1.0, softening=1e-3)
        cfg = SimulationConfig(
            dt=dt,
            order=order,
            forces=forces,
            strategy=strategy,
            balancer=BalancerConfig(s_min=8, s_max=4096),
            seed=seed,
        )
        sim = Simulation(ps, kernel, machine, config=cfg)
        sim.run(steps)
        out[strategy] = sim.log
    return out


def table2(logs: dict[str, EventLog]) -> EventLog:
    """Aggregate the per-step logs into the paper's Table II columns."""
    rows = EventLog()
    per_step: dict[str, float] = {}
    for strategy, log in logs.items():
        compute = float(np.sum(log.column("compute_time", 0.0)))
        lb = float(np.sum(log.column("lb_time", 0.0)))
        steps = max(1, len(log))
        per_step[strategy] = (compute + lb) / steps
    ref = per_step.get("full", min(per_step.values()))
    for strategy, log in logs.items():
        compute = float(np.sum(log.column("compute_time", 0.0)))
        lb = float(np.sum(log.column("lb_time", 0.0)))
        rows.add(
            strategy=strategy,
            total_compute=compute,
            total_lb=lb,
            lb_pct_of_compute=100.0 * lb / compute if compute else 0.0,
            relative_cost_per_step=per_step[strategy] / ref if ref else 1.0,
        )
    return rows


def main(**kwargs) -> dict[str, EventLog]:
    logs = run(**kwargs)
    print("Fig. 8 — per-step total time (sampled every 10 steps)")
    header = "step  " + "  ".join(f"{s:>12s}" for s in logs)
    print(header)
    n_steps = len(next(iter(logs.values())))
    for i in range(0, n_steps, max(1, n_steps // 30)):
        row = f"{i:5d} " + "  ".join(
            f"{logs[s][i]['total_time']:12.6f}" for s in logs
        )
        print(row)
    print("\nFig. 9 — per-step S value (sampled)")
    for i in range(0, n_steps, max(1, n_steps // 15)):
        row = f"{i:5d} " + "  ".join(f"{logs[s][i]['S']:12d}" for s in logs)
        print(row)
    print("\nTable II — strategy summary")
    print(table2(logs).to_table())
    return logs


if __name__ == "__main__":
    main()
