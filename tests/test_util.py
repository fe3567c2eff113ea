"""Tests for util: rng, timers, records."""

import time

import numpy as np
import pytest

from repro.util import EventLog, OpTimer, TimerRegistry, WallTimer, default_rng, spawn_rngs
from repro.util.arrays import stable_argsort


class TestRng:
    def test_int_seed_deterministic(self):
        a = default_rng(42).uniform(size=5)
        b = default_rng(42).uniform(size=5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert default_rng(g) is g

    def test_spawn_independent(self):
        parent = default_rng(0)
        kids = spawn_rngs(parent, 3)
        draws = [k.uniform(size=4) for k in kids]
        assert not np.allclose(draws[0], draws[1])
        assert not np.allclose(draws[1], draws[2])

    def test_spawn_deterministic(self):
        a = spawn_rngs(default_rng(5), 2)[1].uniform(size=3)
        b = spawn_rngs(default_rng(5), 2)[1].uniform(size=3)
        assert np.array_equal(a, b)

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(default_rng(0), -1)


class TestStableArgsort:
    @pytest.mark.parametrize("bound", [1, 200, 1 << 16, (1 << 16) + 1, 1 << 20])
    def test_equals_the_general_stable_sort_on_either_side_of_16_bits(self, bound):
        keys = np.random.default_rng(bound).integers(0, bound, size=5000)
        keys[-1] = bound - 1
        assert np.array_equal(stable_argsort(keys, bound), np.argsort(keys, kind="stable"))

    def test_empty(self):
        assert stable_argsort(np.empty(0, dtype=np.int64), 0).size == 0


class TestTimers:
    def test_wall_timer_accumulates(self):
        t = WallTimer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        with t:
            time.sleep(0.01)
        assert t.elapsed > first >= 0.01

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

    def test_registry_merge(self):
        a = TimerRegistry()
        a.add("P2M", 1.0, 10)
        b = TimerRegistry()
        b.add("P2M", 3.0, 10)
        b.add("M2L", 2.0, 4)
        merged = a.merged_with(b)
        assert merged.coefficient("P2M") == pytest.approx(0.2)
        assert merged.coefficient("M2L") == pytest.approx(0.5)
        # originals untouched
        assert a.coefficient("P2M") == pytest.approx(0.1)

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

    def test_csv(self):
        log = EventLog()
        log.add(a=1, b=2.0)
        csv = log.to_csv()
        assert csv.splitlines()[0] == "a,b"
        assert csv.splitlines()[1] == "1,2"

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

    def test_csv_quotes_special_characters(self):
        """Regression: balancer action strings contain commas/quotes and
        must survive RFC-4180 round-tripping."""
        import csv
        import io

        log = EventLog()
        log.add(step=0, actions='enforce_s, then "fgo" rounds=2', note="a\nb")
        log.add(step=1, actions="plain")
        text = log.to_csv()
        rows = list(csv.reader(io.StringIO(text)))
        assert rows[0] == ["step", "actions", "note"]
        assert rows[1] == ["0", 'enforce_s, then "fgo" rounds=2', "a\nb"]
        assert rows[2] == ["1", "plain", ""]

    def test_csv_quotes_header_keys(self):
        import csv
        import io

        log = EventLog()
        log.add(**{"weird,key": 1})
        rows = list(csv.reader(io.StringIO(log.to_csv())))
        assert rows[0] == ["weird,key"]

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
