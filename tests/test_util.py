"""Tests for util: rng, timers, records."""

import numpy as np
import pytest

from repro.util import EventLog, OpTimer, TimerRegistry, default_rng
from repro.util.arrays import stable_argsort


class TestRng:
    def test_int_seed_deterministic(self):
        a = default_rng(42).uniform(size=5)
        b = default_rng(42).uniform(size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert default_rng(g) is g


class TestStableArgsort:
    @pytest.mark.parametrize("bound", [1, 200, 1 << 16, (1 << 16) + 1, 1 << 20])
    def test_equals_the_general_stable_sort_on_either_side_of_16_bits(self, bound):
        keys = np.random.default_rng(bound).integers(0, bound, size=5000)
        keys[-1] = bound - 1
        assert np.array_equal(stable_argsort(keys, bound), np.argsort(keys, kind="stable"))

    def test_empty(self):
        assert stable_argsort(np.empty(0, dtype=np.int64), 0).size == 0


class TestTimers:
    def test_op_timer_coefficient(self):
        t = OpTimer("M2L")
        t.add(2.0, 4)
        t.add(1.0, 2)
        assert t.coefficient == pytest.approx(0.5)

    def test_op_timer_zero_count(self):
        assert OpTimer("x").coefficient == 0.0

    def test_op_timer_rejects_negative(self):
        t = OpTimer("x")
        with pytest.raises(ValueError):
            t.add(-1.0)
        with pytest.raises(ValueError):
            t.add(1.0, -2)

    def test_registry_reset(self):
        r = TimerRegistry()
        r.add("L2P", 1.0, 1)
        r.reset()
        assert r.coefficient("L2P") == 0.0


class TestEventLog:
    def test_columns_and_order(self):
        log = EventLog()
        log.add(step=0, t=1.5)
        log.add(step=1, t=2.5, extra="x")
        assert log.column("t") == [1.5, 2.5]
        assert log.column("extra") == [None, "x"]
        assert log.keys() == ["step", "t", "extra"]

    def test_table_renders_all_rows(self):
        log = EventLog()
        for i in range(3):
            log.add(i=i)
        table = log.to_table()
        assert len(table.splitlines()) == 5  # header + sep + 3 rows

    def test_indexing(self):
        log = EventLog()
        rec = log.add(x=9)
        assert log[0] is rec
        assert rec["x"] == 9
        assert rec.get("missing", -1) == -1
        assert len(log) == 1

    def test_jsonl_round_trips(self):
        import json

        log = EventLog()
        log.add(step=0, t=1.5, actions="a;b")
        log.add(step=1, extra=np.float64(2.0))
        lines = log.to_jsonl().splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first == {"step": 0, "t": 1.5, "actions": "a;b"}
        # rows keep their own field sets; numpy scalars are coerced
        assert second == {"step": 1, "extra": 2.0}

    def test_jsonl_key_filter(self):
        import json

        log = EventLog()
        log.add(a=1, b=2)
        assert json.loads(log.to_jsonl(keys=["b"])) == {"b": 2}
