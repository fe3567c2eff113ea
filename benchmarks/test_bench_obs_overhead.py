"""Telemetry overhead budget: a *disabled* tracer must cost < 2% of a
reference step loop.

The instrumented hot paths (driver step, executor phases, balancer,
ListCache) call the tracer unconditionally — the guarantee that makes
that acceptable is that a disabled span is a shared no-op singleton.
This bench measures both sides of that claim:

* the per-call price of a disabled ``tracer.span(...)`` context manager,
  multiplied by a deliberately pessimistic spans-per-step count, against
  the measured wall time of one reference simulation step;
* an end-to-end A/B: the same short step loop run with no telemetry
  argument at all vs. an explicitly disabled bundle (identical code
  paths, so the ratio is ~1; asserted loosely to absorb timer noise);
* what *enabled* telemetry costs: a ``collapse_sim``-shaped FMM run
  (balancer, rebuilds, fine-grained surgery, simulated worker lanes)
  with a live ``Telemetry()`` against none, best of three alternating
  runs each, bounded at 1.15x.
"""

import gc
import time

from repro.balance.config import BalancerConfig
from repro.distributions.generators import compact_plummer
from repro.kernels import GravityKernel
from repro.machine.spec import system_a
from repro.obs import Telemetry, Tracer
from repro.sim.driver import Simulation, SimulationConfig


#: generous upper bound on tracer touchpoints per simulation step
#: (step + tree-build + far-field + near-field + physics + balancer spans,
#: two counters, a handful of instants, lane bookkeeping)
SPANS_PER_STEP = 64


def _make_sim(telemetry=None, n=600, seed=0):
    ps = compact_plummer(n, seed=seed, total_mass=1.0, velocity_scale=1.5)
    return Simulation(
        ps,
        GravityKernel(G=1.0, softening=1e-3),
        system_a().with_resources(n_cores=6, n_gpus=2),
        config=SimulationConfig(
            dt=1e-4,
            forces="direct",
            strategy="full",
            balancer=BalancerConfig(gap_threshold_frac=0.15, s_min=8, s_max=2048),
        ),
        telemetry=telemetry,
    )


def _best_time(fn, rounds):
    best = float("inf")
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
    return best


def test_bench_disabled_span_under_2pct_of_step(benchmark):
    """SPANS_PER_STEP disabled-span calls cost < 2% of one reference step."""
    tracer = Tracer(enabled=False)

    n_calls = 100_000
    def span_loop():
        for _ in range(n_calls):
            with tracer.span("x"):
                pass
            tracer.counter("S", 1)

    span_total = _best_time(span_loop, rounds=5)
    per_call = span_total / n_calls
    assert len(tracer) == 0  # stayed a no-op throughout

    sim = _make_sim()
    sim.step()  # warm (tree build, caches)
    step_time = _best_time(sim.step, rounds=5)

    overhead_frac = per_call * SPANS_PER_STEP / step_time
    print(
        f"\ndisabled span+counter: {per_call * 1e9:.0f} ns/call; "
        f"reference step: {step_time * 1e3:.2f} ms; "
        f"{SPANS_PER_STEP} calls/step -> {overhead_frac:.4%} of a step"
    )
    assert overhead_frac < 0.02, (
        f"disabled tracer costs {overhead_frac:.2%} of a reference step "
        f"(budget 2%)"
    )
    benchmark.pedantic(span_loop, rounds=3, iterations=1)


def test_bench_disabled_telemetry_end_to_end(benchmark):
    """Step loop with an explicit disabled bundle ~= default (no telemetry)."""
    steps = 6

    def run_default():
        _make_sim(telemetry=None).run(steps)

    def run_disabled():
        _make_sim(telemetry=Telemetry(enabled=False)).run(steps)

    base = _best_time(run_default, rounds=3)
    disabled = _best_time(run_disabled, rounds=3)
    ratio = disabled / base
    print(f"\n{steps}-step loop: default {base:.3f}s, disabled telemetry {disabled:.3f}s, ratio {ratio:.3f}")
    # identical code paths; loose bound absorbs scheduler/timer noise
    assert ratio < 1.10
    benchmark.pedantic(run_disabled, rounds=1, iterations=1)


def test_bench_enabled_telemetry_stepped_run(benchmark):
    """A fully traced 12-step FMM run costs < 1.15x an untraced one."""
    ps = compact_plummer(2000, seed=0, velocity_scale=1.5)
    machine = system_a().with_resources(n_cores=10, n_gpus=4)
    steps = 12

    def run(telemetry):
        sim = Simulation(
            ps.copy(),
            GravityKernel(G=1.0),
            machine,
            config=SimulationConfig(
                dt=1e-4,
                order=3,
                forces="fmm",
                strategy="full",
                balancer=BalancerConfig(gap_threshold_frac=0.15),
                n_workers=1,
            ),
            telemetry=telemetry,
        )
        with sim:
            sim.run(steps)

    run(None)  # warm: imports, the compiled kernels
    off, on = float("inf"), float("inf")
    for _ in range(3):
        off = min(off, _best_time(lambda: run(None), rounds=1))
        on = min(on, _best_time(lambda: run(Telemetry()), rounds=1))
    ratio = on / off
    tel = Telemetry()
    benchmark.pedantic(run, args=(tel,), rounds=1, iterations=1)
    print(
        f"\n{steps}-step FMM run: no telemetry {off:.3f}s, enabled {on:.3f}s, "
        f"ratio {ratio:.3f}; {len(tel.tracer)} trace events "
        f"({len(tel.tracer) / steps:.0f} per step), {len(tel.metrics)} metric series"
    )
    assert ratio < 1.15, f"enabled telemetry costs {ratio:.2f}x an untraced run"
