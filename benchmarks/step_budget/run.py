"""step_budget: end-to-end and per-layer benchmark for solve, time-stepping
and serve.

One workload, one fresh interpreter (what the benchmark driver calls)::

    python benchmarks/step_budget/run.py --workload plummer_near --seed 1 \\
        --seconds 8 --trace 0

prints a readable block on stderr and, as the last line of stdout, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric (``--trace 1``)
that ``BENCHMARK.json`` declares.  Without ``--workload`` it runs every
workload that way, each in its own interpreter, and prints the table;
``--check-repeat`` does so twice and fails if any end-to-end metric moved
by more than its bound.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import harness
from harness import HERE, REPO, quartiles


def declared() -> dict:
    with open(REPO / "BENCHMARK.json") as fh:
        return json.load(fh)


# ------------------------------------------------------------ one workload


def probe_setup(workload: str, seed: int, scale: str) -> None:
    """Child of :func:`measure_setup`: set the workload up, say so, leave."""
    import workloads

    ctx = workloads.Context(workload, workloads.SCALES[scale], seed)
    try:
        workloads.WORKLOADS[workload][0](ctx)
        print("READY", flush=True)
    finally:
        ctx.close()


def measure_setup(workload: str, seed: int, scale: str, probes: int) -> tuple[list, list]:
    """Set-up time, several times over: interpreter start until the first
    timed operation could begin (imports, inputs, engine or worker spawn,
    server bind and connect), each in a fresh interpreter."""
    walls, refs = [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--probe-setup", workload,
           "--seed", str(seed), "--scale", scale, "--out", str(harness.OUT)]
    clock = harness.Clock()

    def until_ready():
        child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        return child, child.stdout.readline()

    for _ in range(probes):
        # tear-down is not set-up, and must have ended before the host's
        # speed is read again
        (child, line), wall, ref = clock.time(
            until_ready, then=lambda started: started[0].communicate()
        )
        if line.strip() != "READY" or child.returncode != 0:
            raise RuntimeError(f"set-up probe of {workload} failed: {line!r}")
        walls.append(wall)
        refs.append(ref)
    return walls, refs


def run_workload(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> dict:
    """Measure one workload in this interpreter; returns the full record."""
    import numpy
    import workloads
    from repro.obs.ledger import git_rev, machine_spec

    spec = declared()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"unknown workload {workload!r}")
    setup_wall, setup_ref = measure_setup(
        workload, seed, scale, workloads.SCALES[scale]["setup_probes"]
    )

    rec = None
    if trace:
        rec = harness.Recorder(workload)
        harness.install_wrappers(rec)
    ctx = workloads.Context(workload, workloads.SCALES[scale], seed)
    setup, measure = workloads.WORKLOADS[workload]
    try:
        setup(ctx)
        if rec is not None:
            rec.counters.clear()  # set-up work is not part of any operation
        rep = measure(ctx, seconds, rec)
    finally:
        ctx.close()
    rep.wall["setup_s"], rep.ref["setup_s"] = setup_wall, setup_ref

    summary = {}
    for metric, samples in rep.ref.items():
        q1, med, q3 = quartiles(samples)
        summary[metric] = {
            "value": med, "q1": q1, "q3": q3, "n": len(samples),
            "wall_median": quartiles(rep.wall[metric])[1],
        }
    rss = rep.peak_rss_mb
    summary["peak_rss_mb"] = {"value": rss, "q1": rss, "q3": rss, "n": 1}

    if trace:
        names = spec["per_layer"]
        extra = set(rep.layer) - {m["name"] for m in names}
        if extra:
            rep.check(False, f"undeclared per-layer metrics: {sorted(extra)}")
        # a layer the workload never enters did no work and took no time
        values = {m["name"]: float(rep.layer.get(m["name"], 0.0)) for m in names}
        rec.write(harness.OUT / f"trace.{workload}.json")
    else:
        names = spec["end_to_end"]
        missing = {m["name"] for m in names} - set(summary)
        if missing:
            rep.check(False, f"metrics not measured: {sorted(missing)}")
        values = {m["name"]: summary.get(m["name"], {"value": 0.0})["value"] for m in names}
    for name, value in values.items():
        if value != value:
            rep.check(False, f"{name} is NaN")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale,
        "correct": not rep.failures,
        "attempted": rep.attempted,
        "failed": len(rep.failures),
        "failures": rep.failures,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
        "summary": summary,
        "info": rep.info,
        "machine": {**machine_spec(), "numpy": numpy.__version__, "git_rev": git_rev(REPO)},
    }
    with open(harness.OUT / f"{workload}.trace{int(trace)}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    return record


def print_record(record: dict, out=sys.stderr) -> None:
    w = record["workload"]
    mode = "per-layer (traced)" if record["trace"] else "end-to-end"
    print(f"== {w}  seed {record['seed']}  {mode}  info {json.dumps(record['info'], default=str)[:400]}", file=out)
    for name, m in record["metrics"].items():
        s = record["summary"].get(name)
        if s and s["n"] > 1:
            extra = (f"  n={s['n']} q1={s['q1']:.4g} q3={s['q3']:.4g}"
                     f" wall_median={s.get('wall_median', float('nan')):.4g}")
        else:
            extra = ""
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']:8s}{extra}", file=out)
    print(f"  attempted {record['attempted']}  failed {record['failed']}"
          f"  fail_frac {record['failed'] / max(1, record['attempted']):.4f}", file=out)
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=out)


# --------------------------------------------------------------- the suite


def run_suite(args, passes) -> dict:
    """Every workload, every pass, each in a fresh interpreter; returns the
    full records ``{(workload, trace): record}`` the children wrote."""
    spec = declared()
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    results = {}
    for name in names:
        for trace in passes:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale,
                   "--out", str(harness.OUT)]
            done = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            path = harness.OUT / f"{name}.trace{trace}.json"
            if done.returncode not in (0, 1) or not path.exists():
                raise SystemExit(f"{name} (trace {trace}) exited {done.returncode}")
            with open(path) as fh:
                results[(name, trace)] = json.load(fh)
            print_record(results[(name, trace)], out=sys.stdout)
    if 1 in passes:  # one file with every workload's spans
        spans = []
        for name in names:
            with open(harness.OUT / f"trace.{name}.json") as fh:
                spans.extend(json.load(fh))
        with open(harness.OUT / "trace.json", "w") as fh:
            json.dump(spans, fh)
    return results


def check_repeat(args) -> int:
    """Two sets of runs of the same code must agree within each bound."""
    spec = declared()
    first, second = run_suite(args, [0]), run_suite(args, [0])
    worst = 0
    print(f"{'workload':18s} {'metric':14s} {'first':>12s} {'second':>12s} {'change':>8s} {'bound':>6s}")
    for (name, _), a in first.items():
        b = second[(name, 0)]
        for m in spec["end_to_end"]:
            va, vb = a["metrics"][m["name"]]["value"], b["metrics"][m["name"]]["value"]
            change = abs(vb - va) / va
            flag = "" if change <= m["bound"] else "  OVER"
            worst += bool(flag)
            print(f"{name:18s} {m['name']:14s} {va:12.5g} {vb:12.5g} {change:8.1%} {m['bound']:6.0%}{flag}")
        worst += a["failed"] + b["failed"]
    return 1 if worst else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=float(declared()["run_seconds"]))
    ap.add_argument("--trace", nargs="?", const=1, type=int, default=None,
                    help="1: traced pass, per-layer metrics; bare flag in suite mode adds it")
    ap.add_argument("--scale", choices=("full", "toy"), default="full")
    ap.add_argument("--out", default=None, help="output directory (default: out/ beside this file)")
    ap.add_argument("--check-repeat", action="store_true")
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    harness.prepare_environment(args.out)

    if args.probe_setup:
        probe_setup(args.probe_setup, args.seed, args.scale)
        return 0
    if args.check_repeat:
        return check_repeat(args)
    # the driver's form: one workload and an explicit --trace 0|1
    if args.workload and args.trace is not None:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        print_record(record)
        print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
        return 0 if record["correct"] else 1

    results = run_suite(args, [0, 1] if args.trace else [0])
    return 1 if any(r["failed"] for r in results.values()) else 0


if __name__ == "__main__":
    try:
        code = main()
    finally:  # on every path out: no process outlives this one
        harness.stop_resource_tracker()
    sys.exit(code)
