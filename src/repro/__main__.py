"""Command-line entry point: regenerate any of the paper's experiments.

Usage::

    python -m repro list
    python -m repro fig3 [--n 50000] [--order 4]
    python -m repro fig6 --n 100000 --S 64
    python -m repro strategies --n 2500 --steps 300
    python -m repro fig7 --n 50000
    python -m repro trace --n 2000 --steps 30 --out trace.json
    python -m repro trace --forces fmm --workers 4
    python -m repro trace --forces fmm --checkpoint-every 10 --checkpoint ckpt
    python -m repro trace --forces fmm --resume ckpt --steps 10
    python -m repro report --n 50000 --workers 4
    python -m repro serve --port 7421 --pool 2 --max-tenants 8 --shed-budget 60

Options are forwarded as keyword arguments to the experiment's ``run``;
integers and floats are parsed automatically.  ``--checkpoint-every K``
writes ``{stem}.npz`` + ``{stem}.json`` every K steps; ``--resume STEM``
restores from those files and continues bitwise-identically (the resuming
command must repeat the same physics flags — see DESIGN.md §11).
"""

from __future__ import annotations

import sys

from repro.experiments import (
    ablations,
    cluster_scaling,
    fig3_adaptive_cost,
    fig4_uniform_gap,
    fig6_cpu_scaling,
    fig7_hetero_speedup,
    fig8_fig9_table2_strategies,
    fig10_finegrained,
    table1_gpu_scaling,
)
from repro.obs import run as obs_run


def _serve_main(**kwargs) -> None:
    # imported lazily so `python -m repro list` stays cheap
    from repro.serve.server import main as serve_main

    serve_main(**kwargs)


COMMANDS = {
    "fig3": ("Fig. 3 — adaptive CPU/GPU cost vs S", fig3_adaptive_cost.main),
    "fig4": ("Fig. 4 — the Uniform Gap", fig4_uniform_gap.main),
    "fig6": ("Fig. 6 — CPU scaling on System B", fig6_cpu_scaling.main),
    "table1": ("Table I — GPU scaling", table1_gpu_scaling.main),
    "fig7": ("Fig. 7 — heterogeneous speedup vs S", fig7_hetero_speedup.main),
    "strategies": (
        "Figs. 8–9 + Table II — three balancing strategies",
        fig8_fig9_table2_strategies.main,
    ),
    "fig10": ("Fig. 10 — FineGrainedOptimize advantage", fig10_finegrained.main),
    "cluster": (
        "Extension — distributed-memory strong scaling (paper §II)",
        cluster_scaling.main,
    ),
    "trace": (
        "Telemetry — short instrumented run; writes Chrome trace + metrics",
        obs_run.main,
    ),
    "report": (
        "Profiler — critical path, per-stage slack, worker idle attribution",
        obs_run.report_main,
    ),
    "serve": (
        "Job server — multi-tenant asyncio front end over warm engines",
        _serve_main,
    ),
}

ABLATIONS = {
    "ablation-adaptive": ablations.adaptive_vs_uniform,
    "ablation-expansions": ablations.expansion_backends,
    "ablation-partition": ablations.gpu_partition_strategies,
    "ablation-coefficients": ablations.coefficient_prediction_quality,
    "ablation-endpoints": ablations.endpoint_offload,
    "ablation-barneshut": ablations.barnes_hut_vs_fmm,
}


def _parse_value(text: str):
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _parse_kwargs(argv: list[str]) -> dict:
    kwargs = {}
    i = 0
    while i < len(argv):
        arg = argv[i]
        if not arg.startswith("--"):
            raise SystemExit(f"unexpected argument {arg!r} (expected --key value)")
        key = arg[2:].replace("-", "_")
        if i + 1 >= len(argv):
            raise SystemExit(f"missing value for {arg}")
        kwargs[key] = _parse_value(argv[i + 1])
        i += 2
    return kwargs


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help", "list"):
        print(__doc__)
        print("experiments:")
        for name, (desc, _) in COMMANDS.items():
            print(f"  {name:12s} {desc}")
        print("ablations:")
        for name in ABLATIONS:
            print(f"  {name}")
        return 0
    cmd, *rest = argv
    kwargs = _parse_kwargs(rest)
    try:
        if cmd in COMMANDS:
            COMMANDS[cmd][1](**kwargs)
            return 0
        if cmd in ABLATIONS:
            log = ABLATIONS[cmd](**kwargs)
            print(log.to_table())
            return 0
    except (ValueError, TypeError) as exc:
        # Bad flag values (e.g. --workers 0, --dt 0) surface as a clean
        # one-line CLI error instead of a traceback.
        raise SystemExit(f"error: {exc}") from exc
    raise SystemExit(f"unknown command {cmd!r}; try 'python -m repro list'")


if __name__ == "__main__":
    raise SystemExit(main())
