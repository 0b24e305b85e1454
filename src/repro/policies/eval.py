"""Deterministic policy evaluation over a replayed reference stream.

A sweep *cell* is (recorded workload spec) x (policy + params) x (device)
x (endurance budget). The workload trace is the expensive, content-
addressed half — recorded once by the engine and replayed from the
artifact cache — while this evaluator is a cheap pure function over the
replayed batches, so a 60-cell sweep re-reads three artifacts instead of
executing 60 runs. :func:`cell_key` hashes the full cell identity the
same way :class:`~repro.engine.spec.RunSpec` hashes run identity.

Accounting conventions (shared with :mod:`repro.hybrid.dramcache`):
NVM reads pay the device read latency; NVM writes are posted through the
controller's write buffer at DRAM-class latency but cost NVM write
energy; migrations copy ``page_bytes`` in 64 B lines off the critical
path (energy and wear, no latency). DRAM-resident bytes pay standby
power over the run's latency window; NVM pays none (paper §II).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.hybrid.energy import access_energy_nj
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.nvram.technology import DRAM_DDR3, MemoryTechnology
from repro.policies.base import ObjectSpan, PlacementPolicy, PolicyContext
from repro.trace.record import RefBatch
from repro.util.rng import make_rng
from repro.util.units import GiB

#: line size a page copy is charged in (64 B, the cache-line convention)
LINE_BYTES = 64


def cell_key(spec_key: str, policy: str, params: dict, device: str,
             endurance_budget: int) -> str:
    """Content address of one sweep cell (sha256, like RunSpec.key)."""
    blob = json.dumps(
        {"spec": spec_key, "policy": policy, "params": params,
         "device": device, "endurance_budget": int(endurance_budget)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class PolicyCellStats:
    """Everything one cell reports (plain Python scalars only — rows must
    survive JSON journal round-trips bit-identically)."""

    policy: str
    workload: str
    device: str
    endurance_budget: int
    params: dict = field(default_factory=dict)
    accesses: int = 0
    dram_accesses: int = 0
    nvm_reads: int = 0
    #: store references that landed on NVM-resident pages
    nvm_writes: int = 0
    #: 64 B line writes filling pages migrated *into* NVM
    nvm_fill_writes: int = 0
    to_dram: int = 0
    to_nvram: int = 0
    bytes_moved: int = 0
    max_page_wear: int = 0
    nvram_resident_bytes: int = 0
    dram_resident_bytes: int = 0
    latency_ns: float = 0.0
    energy_nj: float = 0.0
    baseline_energy_nj: float = 0.0

    # ------------------------------------------------------------------
    @property
    def migrations(self) -> int:
        return self.to_dram + self.to_nvram

    @property
    def nvm_write_traffic(self) -> int:
        """Total writes the NVM array absorbs: references + fills."""
        return self.nvm_writes + self.nvm_fill_writes

    @property
    def dram_hit_ratio(self) -> float:
        return self.dram_accesses / self.accesses if self.accesses else 0.0

    @property
    def endurance_headroom(self) -> float:
        """1 = untouched budget; 0 = at budget; negative = exceeded."""
        if self.endurance_budget <= 0:
            return 0.0
        return 1.0 - self.max_page_wear / self.endurance_budget

    @property
    def energy_savings(self) -> float:
        if self.baseline_energy_nj <= 0:
            return 0.0
        return 1.0 - self.energy_nj / self.baseline_energy_nj

    def as_row(self) -> dict:
        """One machine-readable sweep row (plain types, stable key order)."""
        return {
            "workload": self.workload,
            "policy": self.policy,
            "params": dict(self.params),
            "device": self.device,
            "endurance_budget": int(self.endurance_budget),
            "accesses": int(self.accesses),
            "dram_hit_ratio": round(self.dram_hit_ratio, 6),
            "nvm_reads": int(self.nvm_reads),
            "nvm_write_traffic": int(self.nvm_write_traffic),
            "migrations": int(self.migrations),
            "bytes_moved": int(self.bytes_moved),
            "max_page_wear": int(self.max_page_wear),
            "endurance_headroom": round(self.endurance_headroom, 6),
            "nvram_resident_bytes": int(self.nvram_resident_bytes),
            "latency_ns": round(float(self.latency_ns), 3),
            "energy_nj": round(float(self.energy_nj), 3),
            "energy_savings": round(self.energy_savings, 6),
        }


def evaluate_policy(
    policy: PlacementPolicy,
    trace: list[RefBatch],
    objects: list[ObjectSpan],
    device: MemoryTechnology,
    endurance_budget: int,
    *,
    classified=None,
    dram: MemoryTechnology = DRAM_DDR3,
    page_bytes: int = 4096,
    seed: int = 0,
    workload: str = "?",
    n_iterations: int = 10,
) -> PolicyCellStats:
    """Run *policy* over *trace* and account one sweep cell.

    Pure and deterministic: same (trace, policy params, device, budget,
    seed) always yields an identical :class:`PolicyCellStats`.
    """
    page_map = PageMap(page_bytes)
    ctx = PolicyContext(
        page_map=page_map,
        device=device,
        dram=dram,
        objects=tuple(objects),
        classified=classified,
        endurance_budget=int(endurance_budget),
        rng=make_rng(seed),
        n_iterations=n_iterations,
    )
    policy.bind(ctx)

    stats = PolicyCellStats(
        policy=policy.name, workload=workload, device=device.name,
        endurance_budget=int(endurance_budget), params=policy.params())
    epoch = None
    for batch in trace:
        if len(batch) == 0:
            continue
        if epoch is None:
            epoch = batch.iteration
        elif batch.iteration != epoch:
            policy.end_epoch(epoch)
            epoch = batch.iteration
        policy.pre_access(batch)
        pools = page_map.pool_of_batch(batch.addr)
        in_nv = pools == int(MemoryPool.NVRAM)
        w = batch.is_write
        nv_w_mask = in_nv & w
        stats.accesses += len(batch)
        stats.nvm_reads += int((in_nv & ~w).sum())
        nv_w = int(nv_w_mask.sum())
        stats.nvm_writes += nv_w
        stats.dram_accesses += int((~in_nv).sum())
        if nv_w:
            ctx.add_wear(page_map.slots_of_batch(batch.addr[nv_w_mask]))
        policy.observe(batch)
    if epoch is not None:
        policy.end_epoch(epoch)

    stats.to_dram = policy.to_dram
    stats.to_nvram = policy.to_nvram
    stats.bytes_moved = policy.bytes_moved
    lines_per_page = page_bytes // LINE_BYTES
    stats.nvm_fill_writes = policy.to_nvram * lines_per_page
    stats.max_page_wear = int(ctx.slot_wear.max(initial=0))

    # residency: object bytes not mapped to NVM live in DRAM (unmapped
    # pages — stacks — are DRAM by definition and excluded here)
    total_bytes = sum(o.size for o in objects)
    stats.nvram_resident_bytes = page_map.bytes_in_pool(MemoryPool.NVRAM)
    stats.dram_resident_bytes = max(0, total_bytes - stats.nvram_resident_bytes)

    # latency: posted NVM writes and all DRAM traffic at DRAM latency
    stats.latency_ns = (stats.nvm_reads * device.read_latency_ns
                        + (stats.nvm_writes + stats.dram_accesses)
                        * dram.read_latency_ns)

    # energy: references + migration copies (each copied page is read
    # from its source and written to its destination in 64 B lines)
    dram_reads = stats.dram_accesses  # symmetric DRAM burst power
    energy = access_energy_nj(device, stats.nvm_reads, stats.nvm_writes)
    energy += access_energy_nj(dram, dram_reads, 0)
    energy += access_energy_nj(device, policy.to_dram * lines_per_page,
                               policy.to_nvram * lines_per_page)
    energy += access_energy_nj(dram, policy.to_nvram * lines_per_page,
                               policy.to_dram * lines_per_page)
    standby_mw = 180.0 * stats.dram_resident_bytes / GiB
    energy += standby_mw * stats.latency_ns / 1e3
    stats.energy_nj = energy

    # all-DRAM baseline: same references, everything at DRAM cost
    total_writes = int(sum(int(b.is_write.sum()) for b in trace))
    total_reads = stats.accesses - total_writes
    base_latency = stats.accesses * dram.read_latency_ns
    base = access_energy_nj(dram, total_reads, total_writes)
    base += 180.0 * total_bytes / GiB * base_latency / 1e3
    stats.baseline_energy_nj = base
    return stats
