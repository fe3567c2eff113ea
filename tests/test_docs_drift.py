"""README.md and DESIGN.md name only things that exist.

Every repository path (``src/…``, ``tests/…``, ``benchmarks/…``,
``examples/…``; globs must match something), every ``repro.<module>``
dotted name (resolved by import + attribute walk) and every
``python -m repro <verb>`` the two documents mention is checked against
the tree, so a rename or deletion that forgets the docs fails here
instead of leaving a dangling reference for the next reader.  Names that
were deleted on purpose (``_RETIRED``) may not come back either.
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.__main__ import ABLATIONS, COMMANDS

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "DESIGN.md")

_PATH = re.compile(r"(?<![\w/.-])(?:src|tests|benchmarks|examples)/[\w./*-]+")
_DOTTED = re.compile(r"(?<![\w.])repro(?:\.[A-Za-z_]\w*)+")
_VERB = re.compile(r"python -m repro ([a-z][\w-]*)")


def _mentions(doc: str, pattern: re.Pattern) -> list[str]:
    text = (ROOT / doc).read_text()
    found = {m.group(pattern.groups and 1 or 0) for m in pattern.finditer(text)}
    # sentence punctuation glued to the end of a mention is not part of it
    return sorted({f.rstrip(".-") for f in found})


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_paths_exist(doc):
    missing = [
        p for p in _mentions(doc, _PATH)
        if not (any(ROOT.glob(p)) if "*" in p else (ROOT / p).exists())
    ]
    assert not missing, f"{doc} names paths that do not exist: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_dotted_names_resolve(doc):
    missing = [d for d in _mentions(doc, _DOTTED) if not _resolves(d)]
    assert not missing, f"{doc} names repro.* objects that do not resolve: {missing}"


@pytest.mark.parametrize("doc", DOCS)
def test_cli_verbs_exist(doc):
    verbs = set(COMMANDS) | set(ABLATIONS) | {"list"}
    missing = [v for v in _mentions(doc, _VERB) if v not in verbs]
    assert not missing, f"{doc} names `python -m repro` verbs that do not exist: {missing}"


#: names deleted on purpose, with what replaced them; spelt in halves so a
#: repository-wide grep for the retired name stays empty.  A name matches as
#: a whole word: ``evaluate_near_tiles`` is not ``evaluate_near_tile``
_RETIRED = {
    "deadline_" + "fatal": "one Deadline per solve; expiry always propagates",
    "Graph" + "DeadlineError": "repro.util.timing.SolveDeadlineError",
    "fmm." + "multipass": "repro.fmm.farfield.laplace_far_field; the per-node "
    "oracle is tests/oracles/farfield.py",
    "fmm/" + "multipass": "src/repro/fmm/farfield.py, tests/oracles/farfield.py",
    "build_interaction_lists" + "_scalar": "repro.tree.build_interaction_lists; the "
    "per-pair oracle left src/ for tests/oracles/lists.py",
    "farfield_row" + "_cache": "repro.tree.AdaptiveOctree.node_table",
    "M2L_ROUND" + "_ROWS": "repro.runtime.shards.M2L_ROUND_BYTES (octet-wide scratch rows)",
    "test_bench_m2l_" + "reduced_translation": "test_bench_m2l_octets; the "
    "per-(level, displacement) class loop left src/ for tests/oracles/m2l.py",
    "OperatorCache" + "Protocol": "repro.expansions.operators.OperatorSet: one frozen "
    "set per (backend, order, h_root), nothing to get or put per key",
    "DictOperator" + "Cache": "repro.expansions.operators.OperatorStore on the ListCache",
    "SharedOperator" + "Cache": "repro.expansions.operators.OperatorStore on the JobServer",
    "share_operator" + "_cache": "ListCache(operators=store), constructor-only",
    "opcache" + "_bytes": "no knob: the store keeps MAX_RESIDENT_SETS sets",
    "opcache" + "-mb": "no knob: the store keeps MAX_RESIDENT_SETS sets",
    "op_" + "evictions": "OperatorStore.stats(): hits, misses, entries, bytes",
    "evaluate_near_" + "tile": "repro.fmm.nearfield.evaluate_near_tiles: one "
    "Kernel.near_tiles call per tile list",
    "journal" + "_since": "none: ListCache.get rebuilds when structure_generation moved",
    "Surgery" + "Record": "none: structure_generation is the one shape stamp",
    "Repair" + "Ineligible": "none: a stale lookup always rebuilds",
    "max_repair" + "_ops": "none: ListCache's one option is operators",
    "lists_repaired" + "_total": "lists_rebuilt_total",
    "repair_nodes" + "_touched": "none: a lookup is a hit or a rebuild",
    "fgo_list_repairs" + "_total": "FineGrainedReport.list_rebuilds",
    "partial" + "_rebuilds": "farfield_geometry_stats builds / hits",
    "test_bench" + "_repair": "none: a rebuild is the only path, timed by step_budget",
}


@pytest.mark.parametrize("doc", DOCS)
def test_retired_names_stay_retired(doc):
    text = (ROOT / doc).read_text()
    back = {
        name: why for name, why in _RETIRED.items()
        if re.search(rf"\b{re.escape(name)}(?!\w)", text)
    }
    assert not back, f"{doc} describes deleted API again: {back}"
