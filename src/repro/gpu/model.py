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
approximates the hardware's greedy block scheduler).  Kernel time is the
busiest SM's cycle count divided by the clock.  GPU *efficiency* — useful
interactions per issued lane-step — falls when leaf populations are not
multiples of the warp size (idle lanes in the last warp), reproducing the
S-dependence of the paper's observed GPU coefficient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.gpu.partition import NearFieldWorkItem

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
        spec = self.spec
        n_blocks = max(1, math.ceil(item.n_targets / spec.block_size))
        total_sources = item.n_sources
        load = sum(math.ceil(p_s / spec.warp_size) for p_s in item.source_counts)
        out = []
        remaining = item.n_targets
        for _ in range(n_blocks):
            in_block = min(spec.block_size, remaining)
            remaining -= in_block
            warps = max(1, math.ceil(in_block / spec.warp_size))
            out.append(warps * total_sources * spec.body_cycles + load * spec.load_cycles)
        return out

    def time_items(self, items: list[NearFieldWorkItem]) -> KernelTiming:
        """Kernel time for a set of target nodes on this GPU."""
        spec = self.spec
        blocks: list[float] = []
        interactions = 0
        issued = 0.0
        for it in items:
            cyc = self.block_cycles(it)
            interactions += it.interactions
            # lanes issued: every active warp's 32 lanes march all sources
            warps_total = sum(
                max(1, math.ceil(min(spec.block_size, it.n_targets - b * spec.block_size) / spec.warp_size))
                for b in range(len(cyc))
            )
            issued += warps_total * spec.warp_size * it.n_sources
            blocks.extend(cyc)
        if not blocks:
            return KernelTiming(spec.launch_overhead_s, 0, 0, 0.0)
        # LPT assignment of blocks onto SMs
        sm_load = [0.0] * spec.n_sms
        for cyc in sorted(blocks, reverse=True):
            idx = sm_load.index(min(sm_load))
            sm_load[idx] += cyc
        kernel_time = max(sm_load) / spec.clock_hz + spec.launch_overhead_s
        return KernelTiming(kernel_time, len(blocks), interactions, issued)
