"""Ablation benches for the design choices called out in DESIGN.md §5."""

import numpy as np

from repro.experiments import ablations


def test_bench_ablation_adaptive_vs_uniform(benchmark):
    """On a Plummer distribution the adaptive tree's best compute time
    beats the uniform tree's (the motivation of §I-B)."""
    log = benchmark.pedantic(
        lambda: ablations.adaptive_vs_uniform(n=20000), rounds=1, iterations=1
    )
    print()
    print(log.to_table())
    rows = {r["decomposition"]: r for r in log}
    assert rows["adaptive"]["best_compute_time"] < rows["uniform"]["best_compute_time"]


def test_bench_ablation_expansions(benchmark):
    """Cartesian Taylor vs spherical harmonics: comparable accuracy at the
    same order; coefficient counts differ (35 vs 25 at p=4)."""
    log = benchmark.pedantic(
        lambda: ablations.expansion_backends(n=2000, order=5, S=50),
        rounds=1,
        iterations=1,
    )
    print()
    print(log.to_table())
    errs = {r["backend"]: r["potential_rel_err"] for r in log}
    assert errs["cartesian"] < 1e-3
    assert errs["spherical"] < 1e-3


def test_bench_ablation_gpu_partition(benchmark):
    """The paper's interaction-count walk keeps per-GPU loads near-equal."""
    log = benchmark.pedantic(
        lambda: ablations.gpu_partition_strategies(n=30000, S=128),
        rounds=1,
        iterations=1,
    )
    print()
    print(log.to_table())
    rows = {r["strategy"]: r for r in log}
    assert rows["interaction_count"]["imbalance"] < 1.2


def test_bench_ablation_barnes_hut(benchmark):
    """§I positioning: FMM precision is order-controlled everywhere; the
    monopole treecode's theta knob has failure regimes (loose theta on
    clustered mass, any theta on net-neutral charge)."""
    log = benchmark.pedantic(
        lambda: ablations.barnes_hut_vs_fmm(n=3000), rounds=1, iterations=1
    )
    print()
    print(log.to_table())
    rows = {r["method"]: r["potential_rel_err"] for r in log}
    # both precision knobs work in their stable regimes...
    assert rows["barnes_hut(theta=0.4)"] < rows["barnes_hut(theta=0.6)"]
    assert rows["fmm(order=6)"] < rows["fmm(order=4)"] < rows["fmm(order=2)"]
    # ...but every FMM order is controlled while the monopole treecode has
    # failure regimes: net-neutral charges defeat it at any practical theta
    assert all(rows[f"fmm(order={p})"] < 0.01 for p in (2, 4, 6))
    assert rows["barnes_hut(theta=0.4, neutral charges)"] > 0.05
    assert rows["fmm(order=4, neutral charges)"] < 0.01
    assert (
        rows["fmm(order=4, neutral charges)"]
        < rows["barnes_hut(theta=0.4, neutral charges)"] / 50
    )


def test_bench_ablation_endpoint_offload(benchmark):
    """§VIII-E extension: offloading P2M/L2P to the GPUs lifts the
    CPU-starved configuration but not the balanced one."""
    log = benchmark.pedantic(
        lambda: ablations.endpoint_offload(n=20000), rounds=1, iterations=1
    )
    print()
    print(log.to_table())
    rows = {(r["config"], r["offload_endpoints"]): r["best_compute_time"] for r in log}
    # CPU-starved: offload is a real win
    assert rows[("4C_4G", True)] < rows[("4C_4G", False)] * 0.95
    # balanced: offload is roughly neutral
    ratio = rows[("10C_2G", True)] / rows[("10C_2G", False)]
    assert 0.9 < ratio < 1.1


def test_bench_ablation_coefficients(benchmark):
    """§IV-D: coefficients observed at one S predict other-S times well
    enough to steer the balancer (CPU within ~50% across a 32..1024 sweep,
    and ranking preserved)."""
    log = benchmark.pedantic(
        lambda: ablations.coefficient_prediction_quality(n=20000),
        rounds=1,
        iterations=1,
    )
    print()
    print(log.to_table(["S", "predicted_cpu", "actual_cpu", "cpu_rel_err", "gpu_rel_err"]))
    assert np.median(log.column("cpu_rel_err")) < 0.5
    # the prediction must rank configurations correctly (what FGO needs)
    pred = np.array(log.column("predicted_cpu"))
    act = np.array(log.column("actual_cpu"))
    assert np.all(np.argsort(pred) == np.argsort(act))
