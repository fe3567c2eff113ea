"""Counters and gauges with Prometheus-style exposition.

The registry is the numeric side of the telemetry subsystem: where the
tracer answers *when*, metrics answer *how many / how much* — balancer
state transitions, ListCache hits vs. builds, FineGrainedOptimize
candidates examined vs. accepted, per-op coefficient gauges.

Instruments are get-or-create by ``(name, labels)``, so hot paths hold a
direct reference and pay one float add per event; re-registering with the
same name returns the existing instrument (and refuses a kind change).
Two export forms:

* :meth:`MetricsRegistry.to_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` / ``name{label="v"} value``);
* :meth:`MetricsRegistry.snapshot` — a plain JSON-able dict for the
  ``python -m repro trace`` artifact and for tests.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Counter", "Gauge", "MetricsRegistry"]


class Counter:
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount

    def expose(self) -> list[str]:
        return [f"{self.name}{_fmt_labels(self.labels)} {_fmt_value(self.value)}"]

    def snapshot(self) -> Any:
        return self.value


class Gauge:
    """A value that goes up and down (coefficients, S, imbalance)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str = "", labels: dict[str, str] | None = None) -> None:
        self.name = name
        self.help = help
        self.labels = dict(labels or {})
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def expose(self) -> list[str]:
        return [f"{self.name}{_fmt_labels(self.labels)} {_fmt_value(self.value)}"]

    def snapshot(self) -> Any:
        return self.value


class MetricsRegistry:
    """Get-or-create home for every instrument in one process."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}

    # ------------------------------------------------------------- creation
    def counter(self, name: str, help: str = "", labels: dict[str, str] | None = None) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: dict[str, str] | None = None) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def _get_or_create(self, cls, name, help, labels):
        key = (name, _label_key(labels))
        existing = self._metrics.get(key)
        if existing is not None:
            if existing.kind != cls.kind:
                raise ValueError(f"metric {name!r} already registered as {existing.kind}")
            return existing
        metric = cls(name, help, labels)
        self._metrics[key] = metric
        return metric

    # --------------------------------------------------------------- export
    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self):
        return iter(self._metrics.values())

    def to_prometheus(self) -> str:
        """Text exposition: one ``# HELP``/``# TYPE`` block per metric name."""
        lines: list[str] = []
        documented: set[str] = set()
        for (name, _), metric in sorted(self._metrics.items()):
            if name not in documented:
                documented.add(name)
                if metric.help:
                    lines.append(f"# HELP {name} {metric.help}")
                lines.append(f"# TYPE {name} {metric.kind}")
            lines.extend(metric.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON-able ``{name or name{labels}: value}`` view of every metric."""
        out: dict[str, Any] = {}
        for (name, _), metric in sorted(self._metrics.items()):
            key = name + _fmt_labels(metric.labels)
            out[key] = metric.snapshot()
        return out


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _fmt_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)

