"""The concrete policies.

Five strategies spanning the design space the related work argues about:
a do-nothing baseline, the paper's static NV-SCAVENGER plan, reactive
threshold migration with hysteresis, EWMA-predictive migration, and a
wear-budgeted endurance guard. Each is ~30 lines: the ABC carries the
shared accounting, a policy only encodes its decision rule — as array
expressions over page-map slots, each page's decay and EWMA arithmetic
in the same order as a per-page loop, so results stay bit-identical to
one (``tests/policy_oracle.py``).
"""

from __future__ import annotations

import numpy as np

from repro.errors import PolicyError
from repro.hybrid.pagemap import MemoryPool
from repro.hybrid.placement import StaticPlacer
from repro.policies.base import PlacementPolicy, grow
from repro.policies.registry import register_policy
from repro.trace.record import RefBatch


@register_policy
class NoMigration(PlacementPolicy):
    """Everything in one pool, never moved — the sweep's baseline."""

    name = "no_migration"
    summary = "all objects in NVM (or DRAM), no movement"

    def __init__(self, home: str = "nvram") -> None:
        if home not in ("nvram", "dram"):
            raise PolicyError(f"home must be 'nvram' or 'dram', got {home!r}")
        super().__init__(home=home)
        self.home = home

    def prepare(self) -> None:
        self.place_all(
            MemoryPool.NVRAM if self.home == "nvram" else MemoryPool.DRAM)


@register_policy
class StaticOracle(PlacementPolicy):
    """The paper's plan: NV-SCAVENGER classifications through
    :class:`~repro.hybrid.placement.StaticPlacer`, frozen for the run."""

    name = "static_oracle"
    summary = "NV-SCAVENGER static plan (classification-driven, no movement)"

    def __init__(self, capacity_fraction: float | None = None) -> None:
        if capacity_fraction is not None and not (0 < capacity_fraction <= 1):
            raise PolicyError("capacity_fraction must be in (0, 1]")
        super().__init__(capacity_fraction=capacity_fraction)
        self.capacity_fraction = capacity_fraction

    def prepare(self) -> None:
        ctx = self.ctx
        if ctx.classified is None:
            raise PolicyError(
                "static_oracle needs NV-SCAVENGER classifications; "
                "evaluate with classified=...")
        capacity = None
        if self.capacity_fraction is not None:
            capacity = int(self.capacity_fraction
                           * sum(o.size for o in ctx.objects))
        StaticPlacer(ctx.device, capacity).place(ctx.classified, ctx.page_map)


@register_policy
class ThresholdMigration(PlacementPolicy):
    """Reactive hot-page promotion with hysteresis.

    Start everything in NVM; promote a page to DRAM once its decayed
    write score crosses ``write_hot``; demote a promoted page back only
    when its write score has fully cooled *and* it is still being read
    (hysteresis keeps ping-pong fills off the NVM write budget).
    """

    name = "threshold"
    summary = "promote write-hot pages to DRAM; demote on hysteresis cooldown"

    def __init__(self, write_hot: float = 8.0, hysteresis: float = 0.25,
                 decay: float = 0.5) -> None:
        if write_hot <= 0 or not (0 <= hysteresis < 1) or not (0 <= decay < 1):
            raise PolicyError(
                "need write_hot > 0, hysteresis in [0,1), decay in [0,1)")
        super().__init__(write_hot=write_hot, hysteresis=hysteresis, decay=decay)
        self.write_hot = write_hot
        self.hysteresis = hysteresis
        self.decay = decay

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)
        n = self.ctx.page_map.mapped_pages
        # decayed per-slot write/read scores and the promoted-slot mask
        self._w = np.zeros(n)
        self._r = np.zeros(n)
        self._promoted = np.zeros(n, dtype=bool)

    def observe(self, batch: RefBatch) -> None:
        self._w += self.slot_counts(batch.addr[batch.is_write])
        self._r += self.slot_counts(batch.addr[~batch.is_write])

    def end_epoch(self, iteration: int) -> None:
        w, r, promoted = self._w, self._r, self._promoted
        up = (w >= self.write_hot) & (self.ctx.page_map.slot_pools == MemoryPool.NVRAM)
        down = (~up & promoted & (w <= self.write_hot * self.hysteresis)
                & (w < 1.0) & (r > 0.0))
        up = np.flatnonzero(up)
        promoted[up[self.migrate_slots(up, MemoryPool.DRAM)]] = True
        down = np.flatnonzero(down)
        promoted[down[self.migrate_slots(down, MemoryPool.NVRAM)]] = False
        _decay(w, self.decay)
        _decay(r, self.decay)


@register_policy
class PredictiveMigration(PlacementPolicy):
    """EWMA write-rate prediction over epoch windows.

    Each epoch folds the window's per-page write count into an
    exponentially-weighted moving average; pages whose *predicted* next
    window crosses ``write_hot`` are promoted ahead of the traffic,
    pages predicted to cool below ``write_hot * demote_margin`` are
    returned to NVM.
    """

    name = "predictive"
    summary = "EWMA write-rate prediction; promote/demote on forecast"

    def __init__(self, alpha: float = 0.6, write_hot: float = 6.0,
                 demote_margin: float = 0.25) -> None:
        if not (0 < alpha <= 1) or write_hot <= 0 or not (0 <= demote_margin < 1):
            raise PolicyError(
                "need alpha in (0,1], write_hot > 0, demote_margin in [0,1)")
        super().__init__(alpha=alpha, write_hot=write_hot,
                         demote_margin=demote_margin)
        self.alpha = alpha
        self.write_hot = write_hot
        self.demote_margin = demote_margin

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)
        n = self.ctx.page_map.mapped_pages
        # this window's per-slot write counts, the EWMA forecast (0 = no
        # forecast) and the promoted-slot mask
        self._epoch_w = np.zeros(n, dtype=np.int64)
        self._ewma = np.zeros(n)
        self._promoted = np.zeros(n, dtype=bool)

    def observe(self, batch: RefBatch) -> None:
        self._epoch_w += self.slot_counts(batch.addr[batch.is_write])

    def end_epoch(self, iteration: int) -> None:
        count, ewma, promoted = self._epoch_w, self._ewma, self._promoted
        # only slots with a forecast or writes this window are judged: a
        # promoted page whose forecast was dropped stays in DRAM until
        # it is written again
        live = (count != 0) | (ewma != 0)
        pred = self.alpha * count + (1.0 - self.alpha) * ewma
        hot = pred >= self.write_hot
        up = np.flatnonzero(hot & (self.ctx.page_map.slot_pools == MemoryPool.NVRAM))
        promoted[up[self.migrate_slots(up, MemoryPool.DRAM)]] = True
        down = np.flatnonzero(
            live & ~hot & (pred < self.write_hot * self.demote_margin) & promoted)
        promoted[down[self.migrate_slots(down, MemoryPool.NVRAM)]] = False
        self._ewma = np.where(pred < 1e-3, 0.0, pred)
        count[:] = 0


@register_policy
class EnduranceAware(PlacementPolicy):
    """Wear-budgeted placement.

    Threshold-style promotion keeps write-hot pages out of NVM for
    performance, and a hard pre-access guard demotes any NVM page whose
    accumulated wear plus the incoming batch would exceed the per-page
    endurance budget — so ``max_page_wear <= endurance_budget`` is an
    invariant of this policy, not a tendency.
    """

    name = "endurance_aware"
    summary = "wear-budgeted: demote before any page can exceed its endurance budget"

    def __init__(self, write_hot: float = 8.0, decay: float = 0.5) -> None:
        if write_hot <= 0 or not (0 <= decay < 1):
            raise PolicyError("need write_hot > 0 and decay in [0,1)")
        super().__init__(write_hot=write_hot, decay=decay)
        self.write_hot = write_hot
        self.decay = decay

    def prepare(self) -> None:
        self.place_all(MemoryPool.NVRAM)
        self._w = np.zeros(self.ctx.page_map.mapped_pages)  # decayed write score

    def pre_access(self, batch: RefBatch) -> None:
        ctx = self.ctx
        count = self.slot_counts(batch.addr[batch.is_write])
        wear = grow(ctx.slot_wear, len(count))
        guard = ((count > 0) & (ctx.page_map.slot_pools == MemoryPool.NVRAM)
                 & (wear + count > ctx.endurance_budget))
        self.migrate_slots(np.flatnonzero(guard), MemoryPool.DRAM)

    def observe(self, batch: RefBatch) -> None:
        self._w += self.slot_counts(batch.addr[batch.is_write])

    def end_epoch(self, iteration: int) -> None:
        up = ((self._w >= self.write_hot)
              & (self.ctx.page_map.slot_pools == MemoryPool.NVRAM))
        self.migrate_slots(np.flatnonzero(up), MemoryPool.DRAM)
        _decay(self._w, self.decay)


def _decay(score: np.ndarray, decay: float) -> None:
    """One epoch of exponential decay, in place; scores under 1e-6 age
    out to 0."""
    score *= decay
    score[score < 1e-6] = 0.0
