"""Smoke test: the real runner at toy sizes.

``pytest benchmarks/step_budget -q`` runs every workload through
``run.py`` exactly as the benchmark driver does (one interpreter per
workload and pass), at ``--scale toy``, and checks the contract: the
workload and metric names are the ones ``BENCHMARK.json`` declares, every
output is correct, no process outlives a run, and the traced pass's spans nest.
"""

import json
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((harness.REPO / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, trace: int, out: Path) -> dict:
    child = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "toy", "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=120)
    # the run led its own session: nothing of it may be left, not even
    # multiprocessing's resource tracker on its way out
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
    assert child.returncode == 0, stderr[-2000:]
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    out = tmp_path_factory.mktemp("step_budget_out")
    jobs = [(w["name"], t) for w in SPEC["workloads"] for t in (0, 1)]
    with ThreadPoolExecutor(max_workers=2) as pool:
        records = list(pool.map(lambda job: _run(*job, out), jobs))
    return out, dict(zip(jobs, records))


def test_declared_workloads_are_the_runnable_ones():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(SPEC["paths"]) == {"benchmarks/step_budget"}


def test_names_match_the_declaration(results):
    _, records = results
    declared = {0: SPEC["end_to_end"], 1: SPEC["per_layer"]}
    for (workload, trace), record in records.items():
        assert set(record) == {"correct", "attempted", "failed", "metrics"}
        assert list(record["metrics"]) == [m["name"] for m in declared[trace]], workload
        for m in declared[trace]:
            assert NAME.fullmatch(m["name"])
            assert record["metrics"][m["name"]]["unit"] == m["unit"]
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"])


def test_outputs_are_correct(results):
    _, records = results
    for (workload, trace), record in records.items():
        assert record["correct"] and record["failed"] == 0, (workload, trace)
        assert record["attempted"] >= 1
        if trace == 0:
            for name, metric in record["metrics"].items():
                assert metric["value"] > 0, (workload, name)


def test_trace_spans_nest(results):
    out, _ = results
    for w in SPEC["workloads"]:
        spans = json.loads((out / f"trace.{w['name']}.json").read_text())
        assert spans, w["name"]
        assert {"name", "start", "end", "parent", "workload", "round"} <= set(spans[0])
        table = harness.SpanTable(spans)
        assert table.check_nesting() == []
        assert all(s["self"] >= -1e-6 for s in spans)
        ids = {s["id"] for s in spans}
        assert all(s["parent"] is None or s["parent"] in ids for s in spans)
