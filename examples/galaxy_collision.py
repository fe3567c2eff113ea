"""Colliding star clusters under the full dynamic load balancer.

Two Plummer clusters on a collision course — the kind of strongly
non-uniform, time-evolving workload the paper's introduction motivates
("simulations of colliding galaxies").  The FMM runs on the System A
machine model (10 CPU cores + 4 GPUs) with the complete three-state
balancer; the script reports per-step compute/LB times, the S trail, and
the balancer's actions.

Run:  python examples/galaxy_collision.py [n_bodies] [steps]
"""

import sys

import numpy as np

from repro import (
    BalancerConfig,
    GravityKernel,
    ParticleSet,
    Simulation,
    SimulationConfig,
    plummer,
    system_a,
)
from repro.geometry import Box


def make_collision(n: int, seed: int = 0) -> ParticleSet:
    """Two equal clusters approaching each other along x."""
    half = n // 2
    a = plummer(half, seed=seed, scale_radius=0.05, total_mass=0.5)
    b = plummer(n - half, seed=seed + 1, scale_radius=0.05, total_mass=0.5)
    sep = 0.5
    v_app = 1.2  # approach speed
    a.positions += np.array([-sep / 2, 0.0, 0.02])
    b.positions += np.array([sep / 2, 0.0, -0.02])
    a.velocities += np.array([v_app / 2, 0.0, 0.0])
    b.velocities += np.array([-v_app / 2, 0.0, 0.0])
    return ParticleSet(
        np.vstack([a.positions, b.positions]),
        np.vstack([a.velocities, b.velocities]),
        np.concatenate([a.strengths, b.strengths]),
        meta={"kind": "collision"},
    )


def main(n: int = 4000, steps: int = 120) -> None:
    ps = make_collision(n)
    kernel = GravityKernel(G=1.0, softening=2e-3)
    machine = system_a().with_resources(n_cores=10, n_gpus=4)
    config = SimulationConfig(
        dt=2e-3,
        order=3,
        forces="direct",  # exact forces; swap to "fmm" for the full path
        strategy="full",
        balancer=BalancerConfig(s_min=8, s_max=2048),
    )
    sim = Simulation(ps, kernel, machine, config=config, domain=Box((0, 0, 0), 3.0))

    print(f"colliding clusters: {n} bodies, {steps} steps, machine {machine.name}")
    print(f"{'step':>5} {'S':>5} {'state':>12} {'cpu ms':>8} {'gpu ms':>8} {'lb ms':>7}  actions")
    for i in range(steps):
        rec = sim.step()
        actions = sim.log[i].get("actions", "")
        if i % 10 == 0 or actions.strip(";"):
            print(
                f"{rec.step:>5} {rec.S:>5} {rec.state:>12} "
                f"{rec.cpu_time * 1e3:>8.3f} {rec.gpu_time * 1e3:>8.3f} "
                f"{rec.lb_time * 1e3:>7.3f}  {actions[:50]}"
            )

    summary = sim.summary()
    print("\nsummary:")
    for k, v in summary.items():
        print(f"  {k}: {v:.6g}")
    sep = np.linalg.norm(
        sim.particles.positions[: n // 2].mean(axis=0)
        - sim.particles.positions[n // 2 :].mean(axis=0)
    )
    print(f"  final cluster-center separation: {sep:.4f} (started at 0.5)")


if __name__ == "__main__":
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 120
    main(n, steps)
