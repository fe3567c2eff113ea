"""The dynamic load balancer: full workflow of §VII-B.

"The simulation starts in the binary search state. ... The load balancer
leaves the binary search state and moves into the incremental state when
CPU and GPU times differ by 0.15s or less.  The load balancer remains in
the incremental state until the computational unit which dominates the
runtime cost changes. ... Once this transitional S value is found, if the
CPU and GPU times differ by more than 0.15s, then FineGrainedOptimize() is
called and upon return from this function the load balancer enters the
observation state. ...

While the load balancer sits in the observation state, nothing is done if
the compute time for the current time step is within 5% of the previously
recorded best time.  If the current compute time differs by more than 5%,
then Enforce_S() is called.  After this call the compute time for the next
time step is predicted and if it is not within 5% of the best, then
FineGrainedOptimize() is called and the time is again predicted.  If the
fine grained adjustment fails to bring the predicted time within 5% of the
best time, the load balancer moves into the incremental state again on the
following time step."

The same controller also implements the two baseline strategies of §IX-A
via ``mode``:

* ``"static"``  — strategy 1: binary search once, then never touch the tree;
* ``"enforce"`` — strategy 2: binary search once, then Enforce_S whenever
  the compute time degrades 5% past the best (the following step's time
  becomes the new best);
* ``"full"``    — strategy 3: the complete workflow above.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

from repro.balance.config import BalancerConfig
from repro.balance.finegrained import fine_grained_optimize
from repro.balance.states import BalancerState
from repro.costmodel.coefficients import ObservedCoefficients
from repro.costmodel.predictor import predict_times
from repro.machine.executor import HeterogeneousExecutor, StepTiming
from repro.obs import Telemetry
from repro.tree.octree import AdaptiveOctree

__all__ = ["DynamicLoadBalancer", "LBOutcome"]


@dataclass
class LBOutcome:
    """What the balancer did at the end of one time step."""

    lb_time: float = 0.0
    state: BalancerState = BalancerState.SEARCH
    #: driver must rebuild the tree with this S before the next step
    rebuild_S: int | None = None
    #: tree was modified in place (enforce / fine-grained surgery)
    tree_modified: bool = False
    actions: list[str] = field(default_factory=list)
    #: FineGrainedOptimize decision record (``FineGrainedReport.as_dict``)
    #: when the step invoked the optimizer
    fgo: dict | None = None


class DynamicLoadBalancer:
    """Stateful controller invoked once at the end of every time step."""

    def __init__(
        self,
        executor: HeterogeneousExecutor,
        *,
        config: BalancerConfig | None = None,
        initial_S: int | None = None,
        mode: str = "full",
        telemetry: Telemetry | None = None,
    ) -> None:
        if mode not in ("static", "enforce", "full"):
            raise ValueError(f"unknown balancer mode {mode!r}")
        self.executor = executor
        self.config = config or BalancerConfig()
        self.mode = mode
        #: defaults to the executor's bundle so one wiring point suffices
        self.telemetry = telemetry if telemetry is not None else executor.telemetry
        self.coeffs = ObservedCoefficients()
        self.state = BalancerState.SEARCH
        # log-space binary search bounds
        self._lo = float(self.config.s_min)
        self._hi = float(self.config.s_max)
        self.S = int(initial_S) if initial_S is not None else int(
            round(math.sqrt(self._lo * self._hi))
        )
        self._search_steps = 0
        self._frozen = False  # static mode after search
        self._inc_entry_dominant: str | None = None
        self.best_time: float | None = None
        self._expect_new_best = False
        #: (state, S) pairs of recent steps for the oscillation watchdog
        self._s_history: deque[tuple[BalancerState, int]] = deque(
            maxlen=self.config.watchdog_window
        )
        #: bounded flight-recorder of per-step decisions — structured
        #: ``{step, from, to, S, best, compute, cpu, gpu, actions}`` dicts
        #: consumed by the run ledger (see :mod:`repro.obs.ledger`)
        self.decisions: deque[dict] = deque(maxlen=512)
        self._decision_step = 0

    # ------------------------------------------------------------------ api
    def reset_to_search(self, reason: str = "reset") -> None:
        """Discard balance state and restart the §VII-B binary search.

        The quarantine path (DESIGN.md §11) calls this after a numeric
        health check trips: observed timings that produced the current S
        are no longer trusted, so the controller re-searches from the full
        ``[s_min, s_max]`` range.  Observed §IV-D coefficients are kept
        (they describe the machine, not the failure); a frozen static-mode
        controller stays frozen by design.
        """
        self.state = BalancerState.SEARCH
        self._lo = float(self.config.s_min)
        self._hi = float(self.config.s_max)
        self._search_steps = 0
        self._inc_entry_dominant = None
        self.best_time = None
        self._expect_new_best = False
        self._s_history.clear()
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "balancer_resets_total",
                "forced balancer resets to the SEARCH state",
                labels={"reason": reason},
            ).inc()
            self.telemetry.tracer.instant("balancer-reset", reason=reason)
    def end_of_step(self, tree: AdaptiveOctree, timing: StepTiming) -> LBOutcome:
        """Digest one step's timing; possibly adjust S or operate on the tree."""
        self.coeffs.update_from_registry(timing.cpu_registry, timing.gpu_p2p_coefficient)
        prev_state = self.state
        out = LBOutcome(state=self.state)
        if self._expect_new_best:
            # the step right after an enforcement becomes the new best
            self.best_time = timing.compute_time
            self._expect_new_best = False
        if self._frozen:
            out.actions.append("frozen")
            self._record_decision(prev_state, timing, out)
            if self.telemetry.enabled:
                self._record_outcome(prev_state, out)
            return out
        if self.state is BalancerState.SEARCH:
            self._search_step(tree, timing, out)
        elif self.state is BalancerState.INCREMENTAL:
            self._incremental_step(tree, timing, out)
        else:
            self._observation_step(tree, timing, out)
        self._s_history.append((prev_state, self.S))
        self._watchdog(out)
        out.state = self.state
        self._record_decision(prev_state, timing, out)
        if self.telemetry.enabled:
            self._record_outcome(prev_state, out)
        return out

    def _record_decision(self, prev_state: BalancerState, timing, out: LBOutcome) -> None:
        """Append one structured decision record to the flight recorder."""
        self.decisions.append(
            {
                "step": self._decision_step,
                "from": prev_state.value,
                "to": self.state.value,
                "S": self.S,
                "rebuild_S": out.rebuild_S,
                "tree_modified": out.tree_modified,
                "lb_time": out.lb_time,
                "compute": timing.compute_time,
                "cpu": timing.cpu_time,
                "gpu": timing.gpu_time,
                "best": self.best_time,
                "actions": list(out.actions),
                **({"fgo": out.fgo} if out.fgo is not None else {}),
            }
        )
        self._decision_step += 1

    def decision_summary(self) -> dict:
        """Aggregate view of the recorded decisions for the run ledger."""
        transitions: dict[str, int] = {}
        actions: dict[str, int] = {}
        s_values: list[int] = []
        for dec in self.decisions:
            if dec["from"] != dec["to"]:
                key = f"{dec['from']}->{dec['to']}"
                transitions[key] = transitions.get(key, 0) + 1
            for action in dec["actions"]:
                name = action.split(" ", 1)[0].split("=", 1)[0]
                actions[name] = actions.get(name, 0) + 1
            s_values.append(dec["S"])
        return {
            "steps_recorded": len(self.decisions),
            "final_state": self.state.value,
            "final_S": self.S,
            "best_time": self.best_time,
            "transitions": transitions,
            "actions": actions,
            "s_min_seen": min(s_values) if s_values else None,
            "s_max_seen": max(s_values) if s_values else None,
        }

    def _watchdog(self, out: LBOutcome) -> None:
        """Detect S flip-flop in the INCREMENTAL state; force OBSERVATION.

        A healthy incremental phase moves S monotonically until dominance
        flips; repeated direction reversals mean the controller is
        thrashing the tree with collapse/pushdown cycles (e.g. the optimum
        sits between two quantized S steps).  When the last full window of
        INCREMENTAL steps reverses direction ``watchdog_flips`` or more
        times, settle into OBSERVATION with the current S.
        """
        cfg = self.config
        if (
            not cfg.watchdog_enabled
            or self.state is not BalancerState.INCREMENTAL
            or len(self._s_history) < cfg.watchdog_window
        ):
            return
        if any(st is not BalancerState.INCREMENTAL for st, _ in self._s_history):
            return
        values = [s for _, s in self._s_history]
        deltas = [b - a for a, b in zip(values, values[1:]) if b != a]
        flips = sum(
            1 for a, b in zip(deltas, deltas[1:]) if (a > 0) != (b > 0)
        )
        if flips < cfg.watchdog_flips:
            return
        self.state = BalancerState.OBSERVATION
        self._inc_entry_dominant = None
        self._expect_new_best = True  # next step's time becomes the new best
        self._s_history.clear()
        out.actions.append(f"watchdog->observation flips={flips}")
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "balancer_oscillation_total",
                "S-oscillation watchdog trips (forced OBSERVATION)",
            ).inc()
            self.telemetry.tracer.instant("balancer-watchdog", flips=flips)

    def _record_outcome(self, prev_state: BalancerState, out: LBOutcome) -> None:
        """Mirror one step's balancer activity into the telemetry bundle."""
        tel = self.telemetry
        if self.state is not prev_state:
            tel.metrics.counter(
                "balancer_transitions_total",
                "balancer state transitions (§VII-B three-state controller)",
                labels={"from": prev_state.value, "to": self.state.value},
            ).inc()
            tel.tracer.instant(
                "balancer-transition", **{"from": prev_state.value, "to": self.state.value}
            )
        tel.metrics.gauge("balancer_S", "current leaf-capacity parameter S").set(self.S)
        for action in out.actions:
            tel.metrics.counter(
                "balancer_actions_total",
                "balancer actions taken at end of step",
                labels={"action": action.split(" ", 1)[0].split("=", 1)[0]},
            ).inc()
            tel.tracer.instant("balancer-action", action=action, state=self.state.value)

    # --------------------------------------------------------------- search
    def _search_step(self, tree, timing, out) -> None:
        cfg = self.config
        self._search_steps += 1
        gap = abs(timing.cpu_time - timing.gpu_time)
        if gap <= cfg.gap_gate(timing.compute_time) or self._search_steps >= cfg.search_max_steps:
            out.actions.append(f"search-done S={self.S}")
            self.best_time = timing.compute_time
            if self.mode == "static" or self.mode == "enforce":
                # baseline strategies fix S after the initial search
                self.state = BalancerState.OBSERVATION
                if self.mode == "static":
                    self._frozen = True
            else:
                self.state = BalancerState.INCREMENTAL
                self._inc_entry_dominant = timing.dominant
            return
        # CPU dominant -> shift work toward the GPUs (larger S), and back
        if timing.cpu_time > timing.gpu_time:
            self._lo = float(self.S)
        else:
            self._hi = float(self.S)
        new_s = int(round(math.sqrt(self._lo * self._hi)))
        new_s = min(max(new_s, cfg.s_min), cfg.s_max)
        if new_s == self.S:
            # bounds have closed; settle here
            self._search_steps = cfg.search_max_steps - 1
        self.S = new_s
        out.rebuild_S = self.S
        out.lb_time += self.executor.time_tree_build(tree)
        out.actions.append(f"search S->{self.S}")

    # ---------------------------------------------------------- incremental
    def _incremental_step(self, tree, timing, out) -> None:
        cfg = self.config
        if self._inc_entry_dominant is None:
            self._inc_entry_dominant = timing.dominant
        if timing.dominant == self._inc_entry_dominant:
            step = max(1, int(round(self.S * cfg.incremental_step)))
            self.S += step if timing.dominant == "cpu" else -step
            self.S = min(max(self.S, cfg.s_min), cfg.s_max)
            out.rebuild_S = self.S
            out.lb_time += self.executor.time_tree_build(tree)
            out.actions.append(f"incremental S->{self.S}")
            return
        # dominance flipped: transitional S found
        out.actions.append("transitional-S")
        gap = abs(timing.cpu_time - timing.gpu_time)
        if cfg.fgo_enabled and gap > cfg.gap_gate(timing.compute_time):
            report = fine_grained_optimize(
                tree, self.coeffs, self.executor, folded=self.executor.folded, config=cfg
            )
            out.lb_time += report.lb_time
            out.tree_modified = report.changed
            out.fgo = report.as_dict()
            out.actions.append(
                f"fgo rounds={report.rounds} ops={report.operations}"
            )
        self.best_time = timing.compute_time
        self.state = BalancerState.OBSERVATION
        self._inc_entry_dominant = None

    # ----------------------------------------------------------- observation
    def _observation_step(self, tree, timing, out) -> None:
        cfg = self.config
        if self.best_time is None:
            self.best_time = timing.compute_time
            return
        if timing.compute_time <= self.best_time * (1.0 + cfg.degradation_tolerance):
            self.best_time = min(self.best_time, timing.compute_time)
            return
        # degraded beyond tolerance: first line of defense is Enforce_S
        ops = tree.enforce_s(self.S)
        out.lb_time += self.executor.time_enforce_s(tree, ops)
        out.tree_modified = True
        out.actions.append(
            f"enforce_s collapses={ops['collapses']} pushdowns={ops['pushdowns']}"
        )
        if self.mode == "enforce":
            self._expect_new_best = True
            return
        cache = self.executor.list_cache
        rebuilds0 = cache.builds
        lists = cache.get(tree, folded=self.executor.folded)
        if cache.builds > rebuilds0:
            out.actions.append("lists rebuilt")
        pred = predict_times(lists.op_counts(), self.coeffs)
        out.lb_time += self.executor.time_prediction(tree)
        if pred.compute_time <= self.best_time * (1.0 + cfg.degradation_tolerance):
            return
        if not cfg.fgo_enabled:
            self.state = BalancerState.INCREMENTAL
            self._inc_entry_dominant = None
            out.actions.append("->incremental (fgo disabled)")
            return
        report = fine_grained_optimize(
            tree, self.coeffs, self.executor, folded=self.executor.folded, config=cfg
        )
        out.lb_time += report.lb_time
        out.tree_modified = out.tree_modified or report.changed
        out.fgo = report.as_dict()
        out.actions.append(f"fgo rounds={report.rounds} ops={report.operations}")
        if (
            report.final is not None
            and report.final.compute_time > self.best_time * (1.0 + cfg.degradation_tolerance)
        ):
            self.state = BalancerState.INCREMENTAL
            self._inc_entry_dominant = None
            out.actions.append("->incremental")
