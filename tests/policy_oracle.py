"""Test-only oracle: policy evaluation as per-page dictionary loops.

This is the evaluator and the threshold / predictive / endurance-aware
hooks as they were written before the hooks became array passes over
page-map slots: every score lives in a ``page -> float`` dict, every
decision is a sorted per-page loop with a ``pool_of_page`` call, and the
page table is :class:`~repro.hybrid.reference.ReferencePageMap`. The
production :func:`repro.policies.evaluate_policy` must produce identical
:class:`~repro.policies.PolicyCellStats` (floats compared with ``==``).

Each oracle policy reads its knobs from a production policy instance,
so both sides of a comparison run the same parameterization.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.energy import access_energy_nj
from repro.hybrid.pagemap import MemoryPool
from repro.hybrid.placement import StaticPlacer
from repro.hybrid.reference import ReferencePageMap
from repro.nvram.technology import DRAM_DDR3
from repro.policies import LINE_BYTES, PlacementPolicy, PolicyCellStats
from repro.util.units import GiB


def _page_counts(addrs, page_bytes):
    return PlacementPolicy.page_counts(addrs, page_bytes)


class OraclePolicy:
    """Shared placement and migration accounting (dict wear)."""

    def __init__(self, knobs: PlacementPolicy, ctx: dict) -> None:
        self.knobs = knobs
        self.ctx = ctx
        self.pm: ReferencePageMap = ctx["page_map"]
        self.wear: dict[int, int] = ctx["wear"]
        self.to_dram = self.to_nvram = self.bytes_moved = 0

    def place_all(self, pool):
        for obj in self.ctx["objects"]:
            self.pm.assign_range(obj.base, obj.size, pool)

    def migrate(self, page, pool) -> bool:
        if not self.pm.migrate_page(int(page), pool):
            return False
        if pool is MemoryPool.NVRAM:
            self.to_nvram += 1
            self.wear[int(page)] = self.wear.get(int(page), 0) + 1
        else:
            self.to_dram += 1
        self.bytes_moved += self.pm.page_bytes
        return True

    def pre_access(self, batch):
        pass

    def observe(self, batch):
        pass

    def end_epoch(self):
        pass


class OracleNoMigration(OraclePolicy):
    def prepare(self):
        self.place_all(MemoryPool.NVRAM if self.knobs.home == "nvram"
                       else MemoryPool.DRAM)


class OracleStatic(OraclePolicy):
    def prepare(self):
        capacity = None
        if self.knobs.capacity_fraction is not None:
            capacity = int(self.knobs.capacity_fraction
                           * sum(o.size for o in self.ctx["objects"]))
        StaticPlacer(self.ctx["device"], capacity).place(
            self.ctx["classified"], self.pm)


class OracleThreshold(OraclePolicy):
    def prepare(self):
        self._w, self._r, self._promoted = {}, {}, set()
        self.place_all(MemoryPool.NVRAM)

    def observe(self, batch):
        pb = self.pm.page_bytes
        for page, count in zip(*_page_counts(batch.addr[batch.is_write], pb)):
            self._w[page] = self._w.get(page, 0.0) + count
        for page, count in zip(*_page_counts(batch.addr[~batch.is_write], pb)):
            self._r[page] = self._r.get(page, 0.0) + count

    def end_epoch(self):
        k = self.knobs
        for page in sorted(set(self._w) | set(self._r)):
            w = self._w.get(page, 0.0)
            r = self._r.get(page, 0.0)
            if w >= k.write_hot and self.pm.pool_of_page(page) is MemoryPool.NVRAM:
                if self.migrate(page, MemoryPool.DRAM):
                    self._promoted.add(page)
            elif (page in self._promoted and w <= k.write_hot * k.hysteresis
                  and w < 1.0 and r > 0.0):
                if self.migrate(page, MemoryPool.NVRAM):
                    self._promoted.discard(page)
        for score in (self._w, self._r):
            for page in list(score):
                score[page] *= k.decay
                if score[page] < 1e-6:
                    del score[page]


class OraclePredictive(OraclePolicy):
    def prepare(self):
        self._epoch_w, self._ewma, self._promoted = {}, {}, set()
        self.place_all(MemoryPool.NVRAM)

    def observe(self, batch):
        pb = self.pm.page_bytes
        for page, count in zip(*_page_counts(batch.addr[batch.is_write], pb)):
            self._epoch_w[page] = self._epoch_w.get(page, 0) + count

    def end_epoch(self):
        k = self.knobs
        for page in sorted(set(self._ewma) | set(self._epoch_w)):
            count = self._epoch_w.get(page, 0)
            pred = k.alpha * count + (1.0 - k.alpha) * self._ewma.get(page, 0.0)
            if pred < 1e-3:
                self._ewma.pop(page, None)
            else:
                self._ewma[page] = pred
            if pred >= k.write_hot:
                if (self.pm.pool_of_page(page) is MemoryPool.NVRAM
                        and self.migrate(page, MemoryPool.DRAM)):
                    self._promoted.add(page)
            elif (pred < k.write_hot * k.demote_margin
                  and page in self._promoted):
                if self.migrate(page, MemoryPool.NVRAM):
                    self._promoted.discard(page)
        self._epoch_w.clear()


class OracleEndurance(OraclePolicy):
    def prepare(self):
        self._w = {}
        self.place_all(MemoryPool.NVRAM)

    def pre_access(self, batch):
        budget = self.ctx["endurance_budget"]
        pb = self.pm.page_bytes
        for page, count in zip(*_page_counts(batch.addr[batch.is_write], pb)):
            if (self.pm.pool_of_page(page) is MemoryPool.NVRAM
                    and self.wear.get(page, 0) + count > budget):
                self.migrate(page, MemoryPool.DRAM)

    def observe(self, batch):
        pb = self.pm.page_bytes
        for page, count in zip(*_page_counts(batch.addr[batch.is_write], pb)):
            self._w[page] = self._w.get(page, 0.0) + count

    def end_epoch(self):
        k = self.knobs
        for page in sorted(self._w):
            if (self._w[page] >= k.write_hot
                    and self.pm.pool_of_page(page) is MemoryPool.NVRAM):
                self.migrate(page, MemoryPool.DRAM)
        for page in list(self._w):
            self._w[page] *= k.decay
            if self._w[page] < 1e-6:
                del self._w[page]


ORACLES = {
    "no_migration": OracleNoMigration,
    "static_oracle": OracleStatic,
    "threshold": OracleThreshold,
    "predictive": OraclePredictive,
    "endurance_aware": OracleEndurance,
}


def oracle_evaluate(policy, trace, objects, device, endurance_budget, *,
                    classified=None, dram=DRAM_DDR3, page_bytes=4096,
                    workload="?") -> PolicyCellStats:
    """The per-page-loop twin of :func:`repro.policies.evaluate_policy`."""
    page_map = ReferencePageMap(page_bytes)
    ctx = {"page_map": page_map, "wear": {}, "objects": tuple(objects),
           "device": device, "classified": classified,
           "endurance_budget": int(endurance_budget)}
    oracle = ORACLES[policy.name](policy, ctx)
    oracle.prepare()

    stats = PolicyCellStats(
        policy=policy.name, workload=workload, device=device.name,
        endurance_budget=int(endurance_budget), params=policy.params())
    shift = np.uint64(page_bytes.bit_length() - 1)
    epoch = None
    for batch in trace:
        if len(batch) == 0:
            continue
        if epoch is None:
            epoch = batch.iteration
        elif batch.iteration != epoch:
            oracle.end_epoch()
            epoch = batch.iteration
        oracle.pre_access(batch)
        in_nv = page_map.pool_of_batch(batch.addr) == int(MemoryPool.NVRAM)
        w = batch.is_write
        nv_w_mask = in_nv & w
        stats.accesses += len(batch)
        stats.nvm_reads += int((in_nv & ~w).sum())
        nv_w = int(nv_w_mask.sum())
        stats.nvm_writes += nv_w
        stats.dram_accesses += int((~in_nv).sum())
        if nv_w:
            pages = batch.addr[nv_w_mask] >> shift
            uniq, counts = np.unique(pages, return_counts=True)
            for p, c in zip(uniq.tolist(), counts.tolist()):
                ctx["wear"][int(p)] = ctx["wear"].get(int(p), 0) + int(c)
        oracle.observe(batch)
    if epoch is not None:
        oracle.end_epoch()

    stats.to_dram = oracle.to_dram
    stats.to_nvram = oracle.to_nvram
    stats.bytes_moved = oracle.bytes_moved
    lines_per_page = page_bytes // LINE_BYTES
    stats.nvm_fill_writes = oracle.to_nvram * lines_per_page
    stats.max_page_wear = max(ctx["wear"].values(), default=0)
    total_bytes = sum(o.size for o in objects)
    stats.nvram_resident_bytes = page_map.bytes_in_pool(MemoryPool.NVRAM)
    stats.dram_resident_bytes = max(0, total_bytes - stats.nvram_resident_bytes)
    stats.latency_ns = (stats.nvm_reads * device.read_latency_ns
                        + (stats.nvm_writes + stats.dram_accesses)
                        * dram.read_latency_ns)
    energy = access_energy_nj(device, stats.nvm_reads, stats.nvm_writes)
    energy += access_energy_nj(dram, stats.dram_accesses, 0)
    energy += access_energy_nj(device, oracle.to_dram * lines_per_page,
                               oracle.to_nvram * lines_per_page)
    energy += access_energy_nj(dram, oracle.to_nvram * lines_per_page,
                               oracle.to_dram * lines_per_page)
    energy += 180.0 * stats.dram_resident_bytes / GiB * stats.latency_ns / 1e3
    stats.energy_nj = energy
    total_writes = int(sum(int(b.is_write.sum()) for b in trace))
    base_latency = stats.accesses * dram.read_latency_ns
    base = access_energy_nj(dram, stats.accesses - total_writes, total_writes)
    base += 180.0 * total_bytes / GiB * base_latency / 1e3
    stats.baseline_energy_nj = base
    return stats
