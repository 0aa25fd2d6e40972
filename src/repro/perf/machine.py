"""Machine model.

The paper's measurements were taken on a dual-socket Intel Xeon E5-2680v3
(12 cores, 2.5 GHz, AVX2, 64 GB RAM).  This module describes that machine —
cache hierarchy, bandwidths, vector width, core count — as the parameter set
of the analytical performance model and the cache simulator.  The default
values approximate the E5-2680v3; experiments can instantiate other machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy."""

    name: str
    size_bytes: int
    line_bytes: int
    associativity: int
    #: Sustained bandwidth for this level, bytes per second (per core for L1/L2,
    #: shared for L3).
    bandwidth: float
    #: Load-to-use latency in cycles (used by the simulator's cost report).
    latency_cycles: int
    shared: bool = False

    @property
    def num_sets(self) -> int:
        return max(1, self.size_bytes // (self.line_bytes * self.associativity))


@dataclass(frozen=True)
class MachineModel:
    """Parameters of the simulated machine."""

    name: str = "xeon-e5-2680v3"
    cores: int = 12
    frequency_hz: float = 2.5e9
    #: SIMD width in double-precision elements (AVX2 = 4).
    vector_width: int = 4
    #: Scalar floating-point operations per cycle per core (one FMA pipe).
    scalar_flops_per_cycle: float = 2.0
    #: Peak vector FLOPs per cycle per core (2 FMA pipes x width x 2 flops).
    vector_flops_per_cycle: float = 16.0
    #: Main-memory bandwidth in bytes per second (single socket, stream-like).
    dram_bandwidth: float = 50e9
    #: Fraction of DRAM bandwidth a single core can sustain.
    single_core_dram_fraction: float = 0.30
    #: Efficiency of the optimized BLAS library relative to peak FLOP/s.
    blas_efficiency: float = 0.80
    #: Per-parallel-region overhead in seconds (thread fork/join).
    parallel_overhead_s: float = 5e-6
    #: Cost of one atomic read-modify-write, in seconds.
    atomic_cost_s: float = 2.0e-8
    #: Per-iteration loop bookkeeping cost in cycles (vectorized loops retire
    #: ``vector_width`` iterations per issue, unrolled loops amortize further).
    loop_overhead_cycles: float = 1.0
    cache_levels: Tuple[CacheLevel, ...] = (
        CacheLevel("L1", 32 * 1024, 64, 8, 300e9, 4),
        CacheLevel("L2", 256 * 1024, 64, 8, 120e9, 12),
        CacheLevel("L3", 30 * 1024 * 1024, 64, 20, 80e9, 40, shared=True),
    )

    @property
    def line_bytes(self) -> int:
        return self.cache_levels[0].line_bytes

    @property
    def peak_flops_per_core(self) -> float:
        return self.frequency_hz * self.vector_flops_per_cycle

    def scalar_flops(self, cores: int = 1) -> float:
        return cores * self.frequency_hz * self.scalar_flops_per_cycle

    def level_by_name(self, name: str) -> CacheLevel:
        for level in self.cache_levels:
            if level.name == name:
                return level
        raise KeyError(f"no cache level named {name!r}")

    def smallest_level_fitting(self, footprint_bytes: float) -> str:
        """Name of the smallest cache level that can hold ``footprint_bytes``.

        Returns ``"DRAM"`` when the footprint exceeds the last-level cache.
        """
        for level in self.cache_levels:
            if footprint_bytes <= level.size_bytes:
                return level.name
        return "DRAM"

    def bandwidth_of(self, level_name: str, threads: int = 1) -> float:
        """Effective bandwidth of a level for ``threads`` active cores."""
        if level_name == "DRAM":
            single = self.dram_bandwidth * self.single_core_dram_fraction
            return min(self.dram_bandwidth, single * max(1, threads))
        level = self.level_by_name(level_name)
        if level.shared:
            return level.bandwidth
        return level.bandwidth * max(1, threads)


#: The default machine used throughout the experiments.
DEFAULT_MACHINE = MachineModel()
