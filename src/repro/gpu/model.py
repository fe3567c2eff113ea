"""Warp/block-level timing model of the paper's all-pairs P2P kernel.

The kernel of §III-C (adapted from Nyland, Harris & Prins, GPU Gems 3):

* one thread per target body; a target node uses as many blocks as needed,
  and in blocks with fewer bodies than threads the extra threads sit idle
  during compute ("this means we want to avoid octrees which result in a
  significant number of small target nodes which have a large number of
  sources");
* sources are loaded in warp-parallel tiles, then the block marches
  serially through the loaded bodies in lock step.

Within a block only warps holding at least one real target execute the
source march (threads with no target return immediately), so the model
charges, per block with ``w`` active warps over a source total of P bodies:

    cycles = w * P * body_cycles  +  ceil(P / warp) * load_cycles

and distributes blocks over SMs (longest-processing-time-first, which
approximates the hardware's greedy block scheduler: each block, largest
first, to the least-loaded SM, the lowest index on ties).  Kernel time is the
busiest SM's cycle count divided by the clock.  GPU *efficiency* — useful
interactions per issued lane-step — falls when leaf populations are not
multiples of the warp size (idle lanes in the last warp), reproducing the
S-dependence of the paper's observed GPU coefficient.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.gpu.partition import NearFieldWork, NearFieldWorkItem
from repro.util.arrays import csr_ptr

__all__ = ["GPUSpec", "KernelTiming", "GPUKernelModel"]


@dataclass(frozen=True)
class GPUSpec:
    """Device description (defaults approximate a Tesla C2050)."""

    name: str = "c2050"
    n_sms: int = 14
    warp_size: int = 32
    block_size: int = 256
    clock_hz: float = 1.15e9
    #: cycles for one warp to advance one source body (≈ FLOPs / cores-per-SM)
    body_cycles: float = 20.0
    #: cycles to stage one warp-wide tile of sources into shared memory
    load_cycles: float = 400.0
    #: fixed kernel launch + wind-down cost in seconds
    launch_overhead_s: float = 30e-6

    def __post_init__(self) -> None:
        if self.n_sms < 1 or self.warp_size < 1 or self.block_size < 1:
            raise ValueError("GPU geometry must be positive")
        if self.block_size % self.warp_size != 0:
            raise ValueError("block_size must be a multiple of warp_size")


@dataclass(frozen=True)
class KernelTiming:
    """Result of timing one GPU's kernel."""

    kernel_time: float
    n_blocks: int
    interactions: int
    issued_body_steps: float  # body-steps actually issued (incl. idle lanes)


class GPUKernelModel:
    """Times the near-field kernel of one GPU on its assigned work items."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    def block_cycles(self, item: NearFieldWorkItem) -> list[float]:
        """Cycle cost of every block spawned for one target node.

        A target node with p_t bodies uses ceil(p_t / block_size) blocks;
        all but the last hold a full block of targets.  Each block pays the
        source march once per *active warp* plus the shared-memory staging
        of every source tile.
        """
        n_blocks, full, last, _, _ = _row_figures(self.spec, NearFieldWork.of_items([item]))
        return [full[0]] * (n_blocks[0] - 1) + [last[0]]

    def time_items(self, items: list[NearFieldWorkItem]) -> KernelTiming:
        """Kernel time for a set of target nodes on this GPU."""
        return self.time_work(NearFieldWork.of_items(items))

    def time_work(self, work: NearFieldWork, lo: int = 0, hi: int | None = None) -> KernelTiming:
        """Kernel time for rows ``lo:hi`` of ``work`` on this GPU: every
        row's :meth:`block_cycles`, from this spec's per-row figures of
        ``work``, largest first onto the least-loaded SM."""
        spec = self.spec
        n_blocks, full, last, lanes, interactions = work.per_spec(spec, _row_figures)
        hi = len(n_blocks) if hi is None else hi
        if hi <= lo:
            return KernelTiming(spec.launch_overhead_s, 0, 0, 0.0)
        blocks: list[float] = []
        for nb, cyc_full, cyc_last in zip(n_blocks[lo:hi], full[lo:hi], last[lo:hi]):
            if nb > 1:
                blocks += [cyc_full] * (nb - 1)
            blocks.append(cyc_last)
        blocks.sort(reverse=True)
        # LPT assignment of blocks onto SMs
        sm_load = [(0.0, sm) for sm in range(spec.n_sms)]
        for cyc in blocks:
            load, sm = sm_load[0]
            heapq.heapreplace(sm_load, (load + cyc, sm))
        kernel_time = max(sm_load)[0] / spec.clock_hz + spec.launch_overhead_s
        issued = 0.0
        for n in lanes[lo:hi]:
            issued += n
        return KernelTiming(kernel_time, len(blocks), sum(interactions[lo:hi]), issued)


def _row_figures(spec: GPUSpec, work: NearFieldWork) -> tuple[list, ...]:
    """Per row of ``work`` on a ``spec`` device: blocks, the cycles of a
    full block and of the last one, lanes issued and interactions."""
    n_targets, n_sources, ptr = work.n_targets, work.n_sources, work.source_ptr
    tiles = csr_ptr(-(-work.source_counts // spec.warp_size))
    staging = (tiles[ptr[1:]] - tiles[ptr[:-1]]) * spec.load_cycles
    # all blocks but a target's last hold a full block of targets
    n_blocks = np.maximum(1, -(-n_targets // spec.block_size))
    full_warps = -(-spec.block_size // spec.warp_size)
    last_warps = np.maximum(
        1, -(-(n_targets - (n_blocks - 1) * spec.block_size) // spec.warp_size)
    )
    full = full_warps * n_sources * spec.body_cycles + staging
    last = last_warps * n_sources * spec.body_cycles + staging
    # lanes issued: every active warp's 32 lanes march all sources
    lanes = ((n_blocks - 1) * full_warps + last_warps) * spec.warp_size * n_sources
    return (
        n_blocks.tolist(),
        full.tolist(),
        last.tolist(),
        lanes.tolist(),
        (n_targets * n_sources).tolist(),
    )
