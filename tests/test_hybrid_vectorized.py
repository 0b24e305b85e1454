"""Differential tests: array hybrid-memory layer vs its scalar oracles.

* :class:`PageMap` (slot arrays + dense lookup index) against the
  dict-backed :class:`ReferencePageMap` under random operation sequences:
  overlapping ranges, page 0 with the top page of a 64-bit space,
  migrations of unmapped pages, ``np.uint64`` inputs and empty batches.
* :class:`DRAMCacheModel` (``ArraySetCache`` + sequential accumulation)
  against :class:`ReferenceDRAMCacheModel`, with ``==`` on every field of
  the result, floats included.
* :func:`evaluate_policy` against the per-page dict loops of
  ``tests/policy_oracle.py`` for every registered policy, tight and loose
  endurance budgets.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.hybrid.dramcache import DRAMCacheModel
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.hybrid.reference import ReferenceDRAMCacheModel, ReferencePageMap
from repro.memory.object import ObjectKind
from repro.nvram.technology import PCRAM, STTRAM
from repro.policies import ObjectSpan, available_policies, create_policy, evaluate_policy
from repro.scavenger.classify import classify_objects
from repro.scavenger.metrics import ObjectMetrics
from repro.trace.record import AccessType, RefBatch
from tests.policy_oracle import oracle_evaluate

PAGE = 4096
TOP_PAGE = (1 << 64) // PAGE - 1
POOLS = st.sampled_from([MemoryPool.DRAM, MemoryPool.NVRAM])
#: clusters near 0, around the index's flat gap allowance, far out and at
#: the top of the address space: exercises one-span, merged-span and
#: multi-span lookups
PAGES = st.one_of(
    st.integers(0, 40),
    st.integers((1 << 17) - 20, (1 << 17) + 40),
    st.integers(1 << 40, (1 << 40) + 40),
    st.integers(TOP_PAGE - 40, TOP_PAGE),
)


def _page_arg(page: int, as_numpy: bool):
    return np.uint64(page) if as_numpy else page


OPS = st.one_of(
    st.tuples(st.just("assign"), PAGES, st.integers(0, 3 * PAGE), POOLS,
              st.integers(0, PAGE - 1)),
    st.tuples(st.just("migrate"), PAGES, POOLS, st.booleans()),
    st.tuples(st.just("migrate_pages"), st.lists(PAGES, max_size=8), POOLS),
)


def _check_same(pm: PageMap, ref: ReferencePageMap, probe: np.ndarray) -> None:
    assert pm.pool_of_batch(probe << np.uint64(12)).tolist() \
        == ref.pool_of_batch(probe << np.uint64(12)).tolist()
    assert pm.pools_of_pages(probe).tolist() \
        == [int(ref.pool_of_page(int(p))) for p in probe]
    assert pm.mapped_pages == ref.mapped_pages
    assert pm.migrations == ref.migrations
    for pool in MemoryPool:
        assert pm.bytes_in_pool(pool) == ref.bytes_in_pool(pool)
    # every slot names its own page, and slot pools agree with the model
    slots = pm.slots_of_pages(pm.slot_pages)
    assert slots.tolist() == list(range(pm.mapped_pages))
    assert pm.slot_pools.tolist() \
        == [int(ref.pool_of_page(int(p))) for p in pm.slot_pages]


class TestPageMapDifferential:
    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(OPS, max_size=25), probe=st.lists(PAGES, max_size=30))
    def test_matches_dict_model(self, ops, probe):
        pm, ref = PageMap(PAGE), ReferencePageMap(PAGE)
        probe = np.array(probe, dtype=np.uint64)
        for op in ops:
            if op[0] == "assign":
                _, page, size, pool, skew = op
                base = page * PAGE + skew
                try:
                    expected = ref.assign_range(base, size, pool)
                except PlacementError:
                    with pytest.raises(PlacementError):
                        pm.assign_range(base, size, pool)
                    continue
                assert pm.assign_range(base, size, pool) == expected
            elif op[0] == "migrate":
                _, page, pool, as_numpy = op
                assert pm.migrate_page(_page_arg(page, as_numpy), pool) \
                    == ref.migrate_page(page, pool)
            else:
                _, pages, pool = op
                changed = pm.migrate_pages(np.array(pages, dtype=np.uint64), pool)
                assert changed.tolist() == [ref.migrate_page(p, pool) for p in pages]
            _check_same(pm, ref, probe)

    def test_empty_batches(self):
        pm = PageMap(PAGE)
        empty = np.empty(0, dtype=np.uint64)
        assert pm.pool_of_batch(empty).shape == (0,)
        assert pm.migrate_pages(empty, MemoryPool.NVRAM).shape == (0,)
        pm.assign_range(0, PAGE, MemoryPool.NVRAM)
        assert pm.pool_of_batch(empty).dtype == np.int8
        assert pm.slots_of_pages(empty).shape == (0,)
        assert pm.migrate_slots(np.empty(0, np.int64), MemoryPool.DRAM).shape == (0,)

    def test_sparse_map_stays_small(self):
        pm = PageMap(PAGE)
        pm.assign_range(0, PAGE, MemoryPool.NVRAM)
        pm.assign_range((1 << 64) - PAGE, PAGE, MemoryPool.NVRAM)
        pm.pool_of_batch(np.array([0], dtype=np.uint64))
        starts, _, _, table = pm._index
        assert len(starts) == 2 and len(table) == 3

    def test_nearby_runs_share_one_span(self):
        pm = PageMap(PAGE)
        pm.assign_range(0x400 * PAGE, 4 * PAGE, MemoryPool.NVRAM)
        pm.assign_range(0x10400 * PAGE, 4 * PAGE, MemoryPool.DRAM)
        pm.pool_of_batch(np.array([0], dtype=np.uint64))
        starts, _, _, _ = pm._index
        assert len(starts) == 1
        # a page filling a gap of the span keeps the index
        assert pm.migrate_page(0x800, MemoryPool.NVRAM)
        assert pm._index is not None
        assert pm.pool_of_page(0x800) is MemoryPool.NVRAM


def _trace(rng, batches, lo_line, hi_line, write_frac):
    out = []
    for _ in range(batches):
        n = int(rng.integers(0, 400))
        lines = rng.integers(lo_line, hi_line, n).astype(np.uint64)
        out.append(RefBatch(
            addr=lines * np.uint64(64) + rng.integers(0, 64, n).astype(np.uint64),
            is_write=rng.random(n) < write_frac,
            size=np.full(n, 8, np.uint8),
            oid=np.full(n, -1, np.int32),
        ))
    return out


class TestDRAMCacheDifferential:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), assoc=st.sampled_from([1, 2, 4, 8]),
           capacity=st.sampled_from([64, 128, 1024, 8192]),
           batches=st.integers(1, 4), span=st.sampled_from([4, 64, 4096]),
           write_frac=st.sampled_from([0.0, 0.3, 0.9]))
    def test_bit_identical(self, seed, assoc, capacity, batches, span, write_frac):
        trace = _trace(np.random.default_rng(seed), batches, 0, span, write_frac)
        tech = PCRAM if seed % 2 else STTRAM
        got = DRAMCacheModel(tech, capacity, associativity=assoc).run(trace)
        want = ReferenceDRAMCacheModel(tech, capacity, associativity=assoc).run(trace)
        assert dataclasses.asdict(got) == dataclasses.asdict(want)

    def test_dirty_victims_carry_across_batches(self):
        # direct-mapped, 2 sets: batch 1 dirties lines 0 and 1, batch 2
        # evicts both (two writebacks charged in batch 2)
        trace = [
            RefBatch.from_access(np.array([0, 64], np.uint64), AccessType.WRITE),
            RefBatch.from_access(np.array([128, 192, 0], np.uint64), AccessType.READ),
        ]
        got = DRAMCacheModel(PCRAM, 128, associativity=1).run(trace)
        want = ReferenceDRAMCacheModel(PCRAM, 128, associativity=1).run(trace)
        assert got == want
        assert got.nvram_writebacks == 2
        assert got.nvram_fills == 5


def _metrics(oid, base, size, reads, writes):
    return ObjectMetrics(
        oid=oid, name=f"o{oid}", kind=ObjectKind.HEAP, size=size, base=base,
        reads=reads, writes=writes, reference_rate=0.0, write_share=0.0,
        reads_per_iter=np.zeros(11, np.int64),
        writes_per_iter=np.zeros(11, np.int64), iterations_touched=8,
    )


#: knob overrides that push each policy through its rarely-taken branches
PARAMS = {
    "no_migration": [{}, {"home": "dram"}],
    "static_oracle": [{}, {"capacity_fraction": 0.3}],
    # decay 0.01 ages a read score below 1e-6 in a few epochs: the pruned
    # score must read as "not being read" and block the demotion
    "threshold": [{}, {"write_hot": 2.0, "hysteresis": 0.5, "decay": 0.0},
                  {"write_hot": 2.0, "hysteresis": 0.5, "decay": 0.01}],
    # alpha 0.99 drops a cooled forecast (< 1e-3) while it is still above
    # the demotion line (2e-4): the page must then stay promoted
    "predictive": [{}, {"alpha": 0.99, "write_hot": 2.0, "demote_margin": 1e-4},
                   {"alpha": 0.3, "write_hot": 1.5, "demote_margin": 0.9}],
    "endurance_aware": [{}, {"write_hot": 1.0, "decay": 0.9}],
}
HEAP = 0x4000_0000
STACK = 0x7000_0000


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), budget=st.sampled_from([1, 3, 40]),
       device=st.sampled_from([PCRAM, STTRAM]))
def test_evaluate_policy_matches_per_page_oracle(seed, budget, device):
    rng = np.random.default_rng(seed)
    n_obj = int(rng.integers(1, 5))
    rows, objects, base = [], [], HEAP + int(rng.integers(0, 4)) * 1000
    for oid in range(n_obj):
        size = int(rng.integers(0, 6 * PAGE))
        rows.append(_metrics(oid, base, size, int(rng.integers(0, 100)),
                             int(rng.integers(0, 100))))
        objects.append(ObjectSpan(oid, f"o{oid}", base, size))
        base += size + int(rng.integers(0, 3)) * PAGE
    classified = classify_objects(rows)
    span = base - HEAP + PAGE
    trace = []
    for it in range(1, int(rng.integers(2, 10))):
        # each iteration works on its own window, so pages heat and cool
        lo = int(rng.integers(0, span))
        hi = lo + 1 + int(rng.integers(0, span - lo))
        for _ in range(int(rng.integers(1, 4))):
            n = int(rng.integers(0, 300))
            heap = HEAP + rng.integers(lo, hi, n)
            stack = STACK + rng.integers(0, 2 * PAGE, n)
            addr = np.where(rng.random(n) < 0.85, heap, stack).astype(np.uint64)
            trace.append(RefBatch(
                addr=addr, is_write=rng.random(n) < rng.random(),
                size=np.full(n, 8, np.uint8), oid=np.full(n, -1, np.int32),
                iteration=it))
    for name in available_policies():
        for params in PARAMS[name]:
            got = evaluate_policy(create_policy(name, **params), trace, objects,
                                  device, budget, classified=classified)
            want = oracle_evaluate(create_policy(name, **params), trace, objects,
                                   device, budget, classified=classified)
            assert dataclasses.asdict(got) == dataclasses.asdict(want), (name, params)


def test_threshold_pruned_read_score_blocks_demotion():
    # page 0 is read once and written hot in epoch 1 (promoted), then
    # written but never read for four epochs: its read score decays
    # 1 -> 1e-2 -> ... and is pruned once under 1e-6. In epoch 6 its write
    # score cools below 1 while the pruned read score says "not read",
    # so it must stay in DRAM (a tiny unpruned score would demote it).
    objects = [ObjectSpan(0, "a", HEAP, 2 * PAGE)]
    other = np.uint64(HEAP + PAGE)

    def batch(it, reads, writes):
        addr = np.array([HEAP] * (reads + writes) + [other], dtype=np.uint64)
        is_write = np.array([False] * reads + [True] * writes + [False])
        return RefBatch(addr=addr, is_write=is_write,
                        size=np.full(len(addr), 8, np.uint8),
                        oid=np.zeros(len(addr), np.int32), iteration=it)

    trace = [batch(1, 1, 5)] + [batch(it, 0, 5) for it in range(2, 6)]
    trace.append(batch(6, 0, 0))
    params = {"write_hot": 2.0, "hysteresis": 0.5, "decay": 0.01}
    got = evaluate_policy(create_policy("threshold", **params), trace,
                          objects, PCRAM, 1000)
    want = oracle_evaluate(create_policy("threshold", **params), trace,
                           objects, PCRAM, 1000)
    assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert (got.to_dram, got.to_nvram) == (1, 0)


def test_evaluate_policy_matches_oracle_on_recorded_workload(kvcache_run):
    run = kvcache_run
    objects = [ObjectSpan(m.oid, m.name, m.base, m.size)
               for m in run.result.object_metrics]
    for name in available_policies():
        for budget in (2, 64):
            got = evaluate_policy(create_policy(name), run.memory_trace, objects,
                                  PCRAM, budget, classified=run.result.classified)
            want = oracle_evaluate(create_policy(name), run.memory_trace, objects,
                                   PCRAM, budget, classified=run.result.classified)
            assert dataclasses.asdict(got) == dataclasses.asdict(want), name


@pytest.fixture(scope="module")
def kvcache_run(tmp_path_factory):
    from repro.experiments.common import ExperimentContext

    ctx = ExperimentContext(
        refs_per_iteration=6_000, scale=1.0 / 256.0, apps=(),
        cache_dir=str(tmp_path_factory.mktemp("kv-cache")))
    return ctx.run("workload:kvcache")
