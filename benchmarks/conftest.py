"""Benchmark suite configuration.

Every paper table/figure has one module here that regenerates it at a
reduced-but-faithful scale and asserts the *shape* claims (who wins, by
roughly what factor, where crossovers fall).  Run with::

    pytest benchmarks/ --benchmark-only -s

Pass ``-s`` to see the regenerated rows/series.

BLAS threading is pinned to one thread *before NumPy loads* (the env vars
below are read at library init): the execution-engine benches attribute
speedup to *our* task-level parallelism, and an OpenBLAS/MKL pool running
underneath would both confound that attribution and oversubscribe the
cores the engine's workers sit on.  Since M2L became one stage (one
BLAS gemm per direction class, run whole by every back end), the pin
also removes M2L's parallelism from both the thread engine and the shard
workers, so the recorded engine and shard ratios describe this pinned
configuration, not the library's default one (EXPERIMENTS.md, the
"one M2L stage on every back end" probe: uniform 10k S=8 order 6 reads threads:2 0.93-1.16x and shards:2
0.90-1.09x serial pinned, 1.56-1.64x / 0.67-0.74x under default BLAS).
"""

import os
import sys
from pathlib import Path

# must precede any (transitive) numpy import in this process
for _var in (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import pytest

# allow running the benchmarks without installing the package, and let
# them import the test-side oracles (``tests.oracles``)
ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))


@pytest.fixture(autouse=True)
def pinned_blas_threads():
    """Assert the single-thread BLAS pin held for every benchmark."""
    for var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
        assert os.environ.get(var) == "1", f"{var} lost its single-thread pin"
    yield
