"""Component throughput benchmarks: the simulator substrates themselves.

These are classic pytest-benchmark microbenchmarks over the hot paths:
instrumentation + analysis pipeline, exact cache simulation, the
two-phase power-model controller, the hybrid-memory page-map lookup and
DRAM-cache model, and the vectorized analyzers.
"""

import numpy as np
import pytest

from repro.cachesim import CacheHierarchy, ReferenceCacheHierarchy, TABLE2_CONFIG
from repro.engine import PipelineEngine, RunSpec
from repro.hybrid import DRAMCacheModel, MemoryPool, PageMap
from repro.nvram import DRAM_DDR3, PCRAM
from repro.powersim import MemorySystem
from repro.scavenger import NVScavenger
from repro.scavenger.buckets import SortedRangeIndex
from repro.scavenger.object_stats import ObjectStatsTable
from repro.trace.record import AccessType, RefBatch
from repro.util.rng import make_rng
from tests.conftest import make_app

N = 50_000


@pytest.fixture(scope="module")
def random_batch():
    rng = make_rng(3)
    return RefBatch(
        addr=rng.integers(0, 1 << 27, N, dtype=np.uint64),
        is_write=rng.random(N) < 0.3,
        size=np.full(N, 8, np.uint8),
        oid=rng.integers(0, 200, N, dtype=np.int32),
        iteration=1,
    )


def test_full_scavenger_pipeline(benchmark):
    """End-to-end: app instrumentation + all analyzers (refs/sec)."""
    result = benchmark.pedantic(
        lambda: NVScavenger().analyze(make_app("gtc", refs=10_000), n_main_iterations=10),
        rounds=2,
        iterations=1,
    )
    assert result.total_refs >= 100_000


def test_cache_hierarchy_throughput(benchmark, random_batch):
    """Exact two-level LRU simulation (refs/sec)."""
    def run():
        h = CacheHierarchy(TABLE2_CONFIG)
        h.process_batch(random_batch)
        return h

    h = benchmark.pedantic(run, rounds=2, iterations=1)
    assert h.stats().refs == N


def test_cache_hierarchy_reference_throughput(benchmark, random_batch):
    """Scalar per-reference LRU simulation — the vectorized path's baseline."""
    def run():
        h = ReferenceCacheHierarchy(TABLE2_CONFIG)
        h.process_batch(random_batch)
        return h

    h = benchmark.pedantic(run, rounds=2, iterations=1)
    assert h.stats().refs == N


def test_engine_record_throughput(benchmark, tmp_path):
    """Live instrumented execution into the artifact cache (refs/sec)."""
    counter = iter(range(1_000_000))

    def run():
        eng = PipelineEngine(root=tmp_path / f"rec{next(counter)}")
        spec = RunSpec(app="gtc", refs_per_iteration=10_000,
                       scale=1.0 / 256.0, n_iterations=5, seed=2)
        return eng.record(spec)

    art = benchmark.pedantic(run, rounds=2, iterations=1)
    assert art.meta["refs"] > 0


def test_engine_replay_throughput(benchmark, tmp_path):
    """Replaying a committed artifact into a probe set (refs/sec)."""
    from repro.cachesim import MemoryTraceProbe

    eng = PipelineEngine(root=tmp_path / "cache")
    spec = RunSpec(app="gtc", refs_per_iteration=10_000,
                   scale=1.0 / 256.0, n_iterations=5, seed=2)
    eng.record(spec)

    def run():
        probe = MemoryTraceProbe()
        return eng.replay(spec, probe)

    art = benchmark.pedantic(run, rounds=3, iterations=1)
    assert art.meta["refs"] > 0


def test_power_controller_throughput(benchmark, random_batch):
    """Two-phase controller: row-buffer array pass + timing scan
    (accesses/sec)."""
    line_batch = RefBatch(
        addr=(random_batch.addr >> np.uint64(6)) << np.uint64(6),
        is_write=random_batch.is_write,
        size=np.full(N, 64, np.uint8),
        oid=random_batch.oid,
        iteration=1,
    )

    def run():
        sys = MemorySystem(DRAM_DDR3)
        sys.process_batch(line_batch)
        return sys

    sys = benchmark.pedantic(run, rounds=2, iterations=1)
    assert sys.controller.stats.accesses == N


def test_page_map_lookup_throughput(benchmark, random_batch):
    """Slot-array page map: pool of every reference in a batch
    (lookups/sec)."""
    pm = PageMap()
    pm.assign_range(0, 1 << 24, MemoryPool.NVRAM)
    pm.assign_range(1 << 26, 1 << 24, MemoryPool.NVRAM)
    out = benchmark(pm.pool_of_batch, random_batch.addr)
    assert out.shape == (N,)


def test_dram_cache_throughput(benchmark, random_batch):
    """DRAM-as-cache model on the array LRU kernel (accesses/sec)."""
    res = benchmark.pedantic(
        lambda: DRAMCacheModel(PCRAM, 1 << 20).run([random_batch]),
        rounds=2, iterations=1)
    assert res.accesses == N


def test_sorted_index_lookup_throughput(benchmark):
    """Vectorized address attribution (lookups/sec)."""
    idx = SortedRangeIndex()
    for oid in range(500):
        idx.insert(oid, oid * 0x1000, oid * 0x1000 + 0x800)
    rng = make_rng(5)
    addrs = rng.integers(0, 500 * 0x1000, N, dtype=np.uint64)
    out = benchmark(idx.lookup_batch, addrs)
    assert out.shape == (N,)


def test_object_stats_accumulation_throughput(benchmark, random_batch):
    """np.bincount-based stats folding (refs/sec)."""
    def run():
        t = ObjectStatsTable()
        for _ in range(10):
            t.add_ref_batch(random_batch)
        return t

    t = benchmark.pedantic(run, rounds=2, iterations=1)
    assert int(t.refs.sum()) == 10 * N
