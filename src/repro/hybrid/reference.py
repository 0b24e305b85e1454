"""Scalar reference implementations of the hybrid-memory hot paths.

:class:`ReferencePageMap` is the original dict-backed page table, whose
``pool_of_batch`` rebuilds and sorts key/value arrays on every call, and
:class:`ReferenceDRAMCacheModel` is the original per-access loop over
:class:`~repro.cachesim.cache.SetAssociativeCache`. The production
:class:`~repro.hybrid.pagemap.PageMap` and
:class:`~repro.hybrid.dramcache.DRAMCacheModel` compute the same results
with array passes; these are kept as the ground truth for differential
testing (``tests/test_hybrid_vectorized.py`` requires identical page
homes and bit-identical cache latency and energy) and as the baselines
of the throughput report.
"""

from __future__ import annotations

import numpy as np

from repro.cachesim.cache import AccessResult, SetAssociativeCache
from repro.hybrid.dramcache import DRAMCacheModel, HierarchicalResult
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.trace.record import RefBatch


class ReferencePageMap:
    """Sparse ``dict`` page -> pool mapping (unmapped pages are DRAM)."""

    # the page-range arithmetic (and its bounds checks) is shared
    pages_of_range = PageMap.pages_of_range

    def __init__(self, page_bytes: int = 4096) -> None:
        self.page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        self._pages: dict[int, MemoryPool] = {}
        self.migrations = 0

    def assign_range(self, base: int, size: int, pool: MemoryPool) -> int:
        pages = self.pages_of_range(base, size)
        for p in pages:
            self._pages[int(p)] = pool
        return len(pages)

    def migrate_page(self, page: int, pool: MemoryPool) -> bool:
        old = self._pages.get(int(page), MemoryPool.DRAM)
        if old is pool:
            return False
        self._pages[int(page)] = pool
        self.migrations += 1
        return True

    def pool_of(self, addr: int) -> MemoryPool:
        return self._pages.get(int(addr) >> self._shift, MemoryPool.DRAM)

    def pool_of_page(self, page: int) -> MemoryPool:
        return self._pages.get(int(page), MemoryPool.DRAM)

    def pool_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        pages = np.asarray(addrs, dtype=np.uint64) >> np.uint64(self._shift)
        if not self._pages:
            return np.zeros(pages.shape, dtype=np.int8)
        # uint64 throughout: page numbers near the top of the address
        # space do not fit int64
        keys = np.fromiter(self._pages.keys(), dtype=np.uint64, count=len(self._pages))
        vals = np.fromiter(
            (int(v) for v in self._pages.values()), dtype=np.int8, count=len(self._pages)
        )
        order = np.argsort(keys)
        keys = keys[order]
        vals = vals[order]
        pos = np.searchsorted(keys, pages)
        out = np.zeros(pages.shape, dtype=np.int8)
        ok = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == pages)
        out[ok] = vals[pos[ok]]
        return out

    def bytes_in_pool(self, pool: MemoryPool) -> int:
        return sum(1 for p in self._pages.values() if p is pool) * self.page_bytes

    @property
    def mapped_pages(self) -> int:
        return len(self._pages)


class ReferenceDRAMCacheModel(DRAMCacheModel):
    """Same geometry and costs as :class:`DRAMCacheModel`; walks the
    trace one access at a time through a dict-per-set LRU cache."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.cache = SetAssociativeCache(self.config)

    def run(self, trace: list[RefBatch]) -> HierarchicalResult:
        cache = self.cache
        dram_lat = self.dram.read_latency_ns
        nv_read = self.nvram.read_latency_ns
        hits = fills = writebacks = 0
        latency = 0.0
        energy = 0.0
        n = 0
        for batch in trace:
            lines = (batch.addr >> np.uint64(self._line_shift)).astype(np.int64)
            writes = batch.is_write
            n += len(lines)
            for i in range(len(lines)):
                res, victim = cache.access(int(lines[i]), bool(writes[i]))
                latency += dram_lat  # the probe/array access
                energy += self._e_dram_nj
                if res is AccessResult.HIT:
                    hits += 1
                    continue
                # miss: fill the line from NVRAM
                fills += 1
                latency += nv_read
                energy += self._e_nv_read_nj
                if victim >= 0:
                    writebacks += 1
                    # the writeback is off the critical path (no latency)
                    energy += self._e_nv_write_nj
        return self._result(n, hits, fills, writebacks, latency, energy)
