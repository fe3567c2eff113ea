"""Lightweight structured event recording for experiments.

Experiment harnesses record one :class:`Record` per time step (compute
time, load-balance time, S value, balancer state, ...) into an
:class:`EventLog`, which can render itself as aligned text tables or JSON
Lines — the formats the benchmark harnesses print and external tooling
consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

__all__ = ["Record", "EventLog"]


@dataclass
class Record:
    """A single row of experiment output: arbitrary named fields."""

    fields: dict[str, Any]

    def __getitem__(self, key: str) -> Any:
        return self.fields[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)


class EventLog:
    """Ordered collection of :class:`Record` rows with tabular rendering."""

    def __init__(self) -> None:
        self._rows: list[Record] = []

    def add(self, **fields: Any) -> Record:
        rec = Record(dict(fields))
        self._rows.append(rec)
        return rec

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._rows)

    def __getitem__(self, idx: int) -> Record:
        return self._rows[idx]

    def column(self, key: str, default: Any = None) -> list[Any]:
        """All values of one field, in insertion order."""
        return [r.get(key, default) for r in self._rows]

    def keys(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self._rows:
            for k in r.fields:
                seen.setdefault(k, None)
        return list(seen)

    def to_jsonl(self, keys: Iterable[str] | None = None) -> str:
        """Render as JSON Lines: one JSON object per record.

        Rows keep their own field sets (no padding with empty strings), so
        external tooling sees exactly what was recorded.
        Non-JSON-native values (numpy scalars, enums) are coerced through
        ``float`` when possible and ``str`` otherwise.
        """
        rows = []
        for r in self._rows:
            fields = (
                r.fields if keys is None else {k: r.fields[k] for k in keys if k in r.fields}
            )
            rows.append(json.dumps(fields, default=_json_default))
        return "\n".join(rows)

    def to_table(self, keys: Iterable[str] | None = None) -> str:
        """Render as an aligned, human-readable text table."""
        keys = list(keys) if keys is not None else self.keys()
        cells = [[_fmt(r.get(k, "")) for k in keys] for r in self._rows]
        widths = [
            max(len(k), *(len(row[i]) for row in cells)) if cells else len(k)
            for i, k in enumerate(keys)
        ]
        header = "  ".join(k.ljust(w) for k, w in zip(keys, widths))
        sep = "  ".join("-" * w for w in widths)
        body = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in cells]
        return "\n".join([header, sep, *body])


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _json_default(obj: Any):
    try:
        return float(obj)
    except (TypeError, ValueError):
        return str(obj)
