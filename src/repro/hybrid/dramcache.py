"""Hierarchical hybrid memory: DRAM as a cache in front of NVRAM.

The alternative §II design (Qureshi et al. [2]): "using DRAM as a cache to
reduce NVRAM access latency ... The first design does not fit well for many
scientific applications. For workloads with poor locality, the DRAM cache
actually lowers performance and increases energy consumption." This module
models that organization so the claim can be tested against the horizontal
(side-by-side) design the paper advocates:

* the DRAM cache is a set-associative, write-back cache over memory-trace
  lines, sized to a fraction of the footprint;
* a hit costs a DRAM access; a miss costs a DRAM probe + an NVRAM line
  fill (+ an NVRAM writeback when the victim is dirty);
* energy charges every DRAM/NVRAM access at the technologies' burst
  energies plus DRAM's standby on the cache capacity.

The horizontal comparator places objects per the NV-SCAVENGER
classification: accesses to NVRAM-resident pages pay NVRAM latency,
everything else DRAM latency — no fill or probe amplification.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cachesim.config import CacheLevelConfig
from repro.cachesim.hierarchy import ArraySetCache
from repro.errors import ConfigurationError
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.nvram.technology import DRAM_DDR3, MemoryTechnology
from repro.trace.record import RefBatch
from repro.util.units import GiB


@dataclass
class HierarchicalResult:
    """Outcome of running a memory trace against the DRAM-cache design."""

    accesses: int
    dram_hits: int
    nvram_fills: int
    nvram_writebacks: int
    total_latency_ns: float
    energy_nj: float

    @property
    def hit_rate(self) -> float:
        return self.dram_hits / self.accesses if self.accesses else 0.0

    @property
    def avg_latency_ns(self) -> float:
        return self.total_latency_ns / self.accesses if self.accesses else 0.0

    @property
    def nvram_traffic(self) -> int:
        return self.nvram_fills + self.nvram_writebacks


@dataclass
class HorizontalResult:
    """Outcome of the same trace against the side-by-side design."""

    accesses: int
    nvram_accesses: int
    total_latency_ns: float
    energy_nj: float

    @property
    def avg_latency_ns(self) -> float:
        return self.total_latency_ns / self.accesses if self.accesses else 0.0


class DRAMCacheModel:
    """The hierarchical organization.

    The DRAM cache runs on the cache filter's exact-LRU array kernel
    (:class:`~repro.cachesim.hierarchy.ArraySetCache`), one
    ``run_stream`` call per batch. Latency and energy are sums of
    per-access increments taken in the scalar walk's order (probe, then
    fill, then writeback) with ``np.add.accumulate``, which adds strictly
    left to right, so both floats match
    :class:`~repro.hybrid.reference.ReferenceDRAMCacheModel` bit for bit.
    """

    def __init__(
        self,
        nvram: MemoryTechnology,
        dram_capacity_bytes: int,
        line_bytes: int = 64,
        associativity: int = 8,
        dram: MemoryTechnology = DRAM_DDR3,
        dram_standby_mw_per_gib: float = 180.0,
    ) -> None:
        if dram_capacity_bytes <= 0:
            raise ConfigurationError("DRAM cache capacity must be positive")
        # round capacity to a valid cache geometry
        n_lines = max(associativity, dram_capacity_bytes // line_bytes)
        n_sets = 1 << max(0, (n_lines // associativity - 1).bit_length())
        size = n_sets * associativity * line_bytes
        self.config = CacheLevelConfig(
            name="DRAM$", size_bytes=size, associativity=associativity,
            line_bytes=line_bytes,
        )
        self.cache = ArraySetCache(self.config)
        self.nvram = nvram
        self.dram = dram
        self.capacity = size
        self._line_shift = line_bytes.bit_length() - 1
        self._standby_mw = dram_standby_mw_per_gib * size / GiB
        # burst energies at DRAM-burst duration (same convention as powersim)
        self._e_dram_nj = dram.read_power_mw * 10.0 / 1e3
        self._e_nv_read_nj = nvram.read_power_mw * 10.0 / 1e3
        self._e_nv_write_nj = nvram.write_power_mw * 10.0 / 1e3

    def _result(self, n: int, hits: int, fills: int, writebacks: int,
                latency: float, energy: float) -> HierarchicalResult:
        total_time_ns = latency  # serialized model: latency ~ occupancy
        energy += self._standby_mw * total_time_ns / 1e3
        return HierarchicalResult(
            accesses=n,
            dram_hits=hits,
            nvram_fills=fills,
            nvram_writebacks=writebacks,
            total_latency_ns=latency,
            energy_nj=energy,
        )

    def run(self, trace: list[RefBatch]) -> HierarchicalResult:
        cache = self.cache
        hits = fills = writebacks = n = 0
        latency = 0.0
        energy = 0.0
        for batch in trace:
            m = len(batch)
            if m == 0:
                continue
            lines = (batch.addr >> np.uint64(self._line_shift)).astype(np.int64)
            hit, _, victim, _ = cache.run_stream(
                lines & cache._set_mask, lines >> cache._set_bits,
                np.ascontiguousarray(batch.is_write), np.zeros(m, np.int32))
            miss = ~hit
            dirty = victim >= 0
            n += m
            n_miss = int(np.count_nonzero(miss))
            hits += m - n_miss
            fills += n_miss
            writebacks += int(np.count_nonzero(dirty))
            latency = self._sequential_sum(
                latency, m, self.dram.read_latency_ns,
                (miss, self.nvram.read_latency_ns))
            energy = self._sequential_sum(
                energy, m, self._e_dram_nj,
                (miss, self._e_nv_read_nj), (dirty, self._e_nv_write_nj))
        return self._result(n, hits, fills, writebacks, latency, energy)

    @staticmethod
    def _sequential_sum(start: float, m: int, per_access: float,
                        *extras: tuple[np.ndarray, float]) -> float:
        """``start`` plus, for each of *m* accesses in order, *per_access*
        and then each ``(mask, value)`` extra the access's mask selects —
        added one at a time, left to right, like the scalar loop."""
        # per-access slot counts: 1 + one per selected extra
        width = np.ones(m, dtype=np.int64)
        for mask, _ in extras:
            width += mask
        first = np.cumsum(width) - width + 1  # slot 0 holds *start*
        inc = np.empty(int(width.sum()) + 1, dtype=np.float64)
        inc[0] = start
        inc[first] = per_access
        nxt = first + 1
        for mask, value in extras:
            inc[nxt[mask]] = value
            nxt += mask
        return float(np.add.accumulate(inc)[-1])


class HorizontalModel:
    """The side-by-side organization driven by a placement page map."""

    def __init__(
        self,
        nvram: MemoryTechnology,
        page_map: PageMap,
        dram: MemoryTechnology = DRAM_DDR3,
        dram_capacity_bytes: int | None = None,
        dram_standby_mw_per_gib: float = 180.0,
    ) -> None:
        self.nvram = nvram
        self.dram = dram
        self.page_map = page_map
        self._dram_bytes = (
            dram_capacity_bytes
            if dram_capacity_bytes is not None
            else page_map.bytes_in_pool(MemoryPool.DRAM)
        )
        self._standby_mw = dram_standby_mw_per_gib * self._dram_bytes / GiB
        self._e_dram_nj = dram.read_power_mw * 10.0 / 1e3
        self._e_nv_read_nj = nvram.read_power_mw * 10.0 / 1e3
        self._e_nv_write_nj = nvram.write_power_mw * 10.0 / 1e3

    def run(self, trace: list[RefBatch]) -> HorizontalResult:
        nv_read = self.nvram.read_latency_ns
        dram_lat = self.dram.read_latency_ns
        n = nv_n = 0
        latency = 0.0
        energy = 0.0
        for batch in trace:
            pools = self.page_map.pool_of_batch(batch.addr)
            in_nv = pools == int(MemoryPool.NVRAM)
            w = batch.is_write
            n += len(batch)
            nv_reads = int((in_nv & ~w).sum())
            nv_writes = int((in_nv & w).sum())
            d_accesses = int((~in_nv).sum())
            nv_n += nv_reads + nv_writes
            # NVRAM writes are posted through the controller's write buffer
            # (DRAM-class visible latency); the slow array write costs
            # energy, not critical-path time
            latency += nv_reads * nv_read + nv_writes * dram_lat + d_accesses * dram_lat
            energy += (
                nv_reads * self._e_nv_read_nj
                + nv_writes * self._e_nv_write_nj
                + d_accesses * self._e_dram_nj
            )
        energy += self._standby_mw * latency / 1e3
        return HorizontalResult(
            accesses=n, nvram_accesses=nv_n, total_latency_ns=latency, energy_nj=energy
        )
