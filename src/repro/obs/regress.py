"""Tolerance-banded perf-regression tracking over the run ledger.

The five benchmark gates of :data:`GATED_BENCHES` (far-field batching,
engine step, shard step, shard recovery, serve warm vs cold) each append
a ``kind="bench"`` :class:`~repro.obs.ledger.RunRecord` to the ledger,
turning isolated BENCH_*.json snapshots into a trajectory.
:func:`check_regression` compares the newest record of a bench against
the *median* of the preceding window and fails when the gated metric
degraded beyond a relative tolerance band — the median
baseline absorbs one-off noise spikes that a best-ever baseline would
turn into permanent unreachable bars, while the band (default 15%)
absorbs run-to-run jitter.

Comparability rules, both load-bearing on shared CI runners:

* records whose ``extra.gate_skipped`` is truthy are excluded — a run
  that could not exercise the gate (e.g. a 1-CPU container skipping the
  parallel-speedup check) carries no timing signal;
* only records from machines with the same affinity-aware CPU count and
  the same P2P body (``p2p_kernel``; records older than the field ran
  NumPy) as the newest record are compared — a laptop number against a
  CI-runner number, or a compiled near field against its fallback, is
  noise, not a regression.

A bench whose records are *all* incomparable yields a ``VACUOUS``
verdict: not a regression, but not a pass either — nothing was measured.

``python -m repro regress`` (and the CI ``regression-check`` job) runs
:func:`check_all` over every gated bench present in the ledger and exits
non-zero on any failed verdict — and on any vacuous one when the machine
has the :data:`GATE_CPU_FLOOR` CPUs every timing gate needs, i.e. when
the benches could have measured and did not.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Any

from repro.obs.ledger import RunLedger, RunRecord

__all__ = [
    "GATED_BENCHES",
    "GATE_CPU_FLOOR",
    "RegressionVerdict",
    "check_all",
    "check_regression",
]

#: bench name -> (gated metric, direction) — "lower" means lower is better
GATED_BENCHES: dict[str, tuple[str, str]] = {
    "far_field_50k_plummer": ("batched_ms", "lower"),
    "engine_step_50k_plummer": ("engine_ms", "lower"),
    "shard_step_500k_plummer": ("shard_ms", "lower"),
    "shard_recovery_100k_plummer": ("recovery_ms", "lower"),
    "serve_warm_vs_cold_2k": ("warm_ms", "lower"),
}

#: affinity-aware CPUs below which every timing gate self-skips (and
#: stamps its record ``gate_skipped``)
GATE_CPU_FLOOR = 4

#: default relative tolerance band (the ">15% slower fails" policy)
DEFAULT_REL_TOL = 0.15

#: default look-back window (records) for the median baseline
DEFAULT_WINDOW = 5


@dataclass
class RegressionVerdict:
    """Outcome of one regression check.

    Three states: ``ok`` false — a regression; :attr:`vacuous` — no
    comparable record exists, the verdict says nothing; otherwise a pass.
    """

    bench: str
    metric: str
    ok: bool
    reason: str
    latest: float | None = None
    baseline: float | None = None
    ratio: float | None = None
    window_n: int = 0
    rel_tol: float = DEFAULT_REL_TOL

    @property
    def vacuous(self) -> bool:
        """No comparable record: nothing was checked, so nothing passed."""
        return self.ok and self.latest is None

    def to_dict(self) -> dict[str, Any]:
        return {
            "bench": self.bench,
            "metric": self.metric,
            "ok": self.ok,
            "vacuous": self.vacuous,
            "reason": self.reason,
            "latest": self.latest,
            "baseline": self.baseline,
            "ratio": self.ratio,
            "window_n": self.window_n,
            "rel_tol": self.rel_tol,
        }

    def __str__(self) -> str:  # the CI log line
        verdict = "VACUOUS" if self.vacuous else "OK  " if self.ok else "FAIL"
        nums = ""
        if self.latest is not None and self.baseline is not None:
            nums = " latest=%.4g baseline=%.4g ratio=%.3f" % (
                self.latest,
                self.baseline,
                self.ratio if self.ratio is not None else float("nan"),
            )
        return "%s %s[%s]: %s%s" % (verdict, self.bench, self.metric, self.reason, nums)


def _metric_of(rec: RunRecord, metric: str) -> float | None:
    val = rec.metrics.get(metric)
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return None
    fval = float(val)
    return fval if fval == fval else None


def _comparable(recs: list[RunRecord], metric: str) -> list[RunRecord]:
    """Drop gate-skipped and metric-less records."""
    out = []
    for rec in recs:
        if rec.extra.get("gate_skipped"):
            continue
        if _metric_of(rec, metric) is None:
            continue
        out.append(rec)
    return out


def _machine_key(rec: RunRecord) -> tuple:
    m = rec.machine
    return m.get("cpu_available"), m.get("p2p_kernel", "numpy"), m.get("p2p_isa")


def check_regression(
    ledger: RunLedger,
    bench: str,
    window: int = DEFAULT_WINDOW,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    metric: str | None = None,
    direction: str | None = None,
    machine_aware: bool = True,
) -> RegressionVerdict:
    """Compare ``bench``'s newest ledger record against its history.

    The baseline is the median of up to ``window`` preceding comparable
    records.  For ``direction="lower"`` (timings) the check fails when
    ``latest > baseline * (1 + rel_tol)``; for ``"higher"`` (speedups)
    when ``latest < baseline * (1 - rel_tol)``.  Too little history is
    a pass with an explanatory reason — a brand-new bench cannot regress
    against nothing; *no* comparable record at all (every one
    gate-skipped) is :attr:`RegressionVerdict.vacuous`.
    """
    if metric is None or direction is None:
        gm, gd = GATED_BENCHES.get(bench, ("", "lower"))
        metric = metric or gm
        direction = direction or gd
    if not metric:
        return RegressionVerdict(bench, "", True, "no gated metric configured")

    recs = _comparable(ledger.query(bench=bench, kind="bench"), metric)
    if not recs:
        return RegressionVerdict(bench, metric, True, "no comparable records")
    newest = recs[-1]
    history = recs[:-1]
    if machine_aware:
        like = _machine_key(newest)
        history = [r for r in history if _machine_key(r) == like]
    history = history[-window:]
    latest = _metric_of(newest, metric)
    assert latest is not None  # _comparable guaranteed it
    if not history:
        return RegressionVerdict(
            bench, metric, True, "insufficient history (1 comparable record)",
            latest=latest, window_n=0, rel_tol=rel_tol,
        )

    baseline = statistics.median(
        v for v in (_metric_of(r, metric) for r in history) if v is not None
    )
    if baseline <= 0.0:
        return RegressionVerdict(
            bench, metric, True, "non-positive baseline, cannot band",
            latest=latest, baseline=baseline, window_n=len(history), rel_tol=rel_tol,
        )
    ratio = latest / baseline
    if direction == "lower":
        ok = ratio <= 1.0 + rel_tol
        sense = "slower" if ratio > 1.0 else "faster"
    else:
        ok = ratio >= 1.0 - rel_tol
        sense = "worse" if ratio < 1.0 else "better"
    pct = abs(ratio - 1.0) * 100.0
    reason = (
        "within %.0f%% band (%.1f%% %s than median of %d)"
        % (rel_tol * 100.0, pct, sense, len(history))
        if ok
        else "regressed %.1f%% %s vs median of %d (band %.0f%%)"
        % (pct, sense, len(history), rel_tol * 100.0)
    )
    return RegressionVerdict(
        bench, metric, ok, reason,
        latest=latest, baseline=baseline, ratio=ratio,
        window_n=len(history), rel_tol=rel_tol,
    )


def check_all(
    ledger: RunLedger,
    window: int = DEFAULT_WINDOW,
    rel_tol: float = DEFAULT_REL_TOL,
    *,
    machine_aware: bool = True,
) -> list[RegressionVerdict]:
    """Run :func:`check_regression` for every gated bench in the ledger."""
    present = set(ledger.benches())
    return [
        check_regression(
            ledger, bench, window, rel_tol, machine_aware=machine_aware
        )
        for bench in GATED_BENCHES
        if bench in present
    ]
