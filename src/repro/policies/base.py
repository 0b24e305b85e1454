"""The placement/migration policy contract.

A policy owns one :class:`~repro.hybrid.pagemap.PageMap` for the duration
of one evaluated run: it lays down the initial placement in
:meth:`PlacementPolicy.prepare`, watches the replayed reference stream
through :meth:`observe` (and, for emergency demotions, :meth:`pre_access`),
and acts at epoch boundaries in :meth:`end_epoch`. Hooks work on arrays
indexed by the page map's *slots* (one per mapped page, append-only):
:meth:`PlacementPolicy.slot_counts` folds a batch into per-slot counts,
and :meth:`PlacementPolicy.migrate_slots` moves a set of slots with the
shared accounting. Pages off the map (stacks) are DRAM-resident and are
never scored. The shape follows the
data-migration strategy base classes of HBM/NVM serving simulators: a
small ABC with a no-op baseline subclass, concrete strategies overriding
one decision method, and every knob passed explicitly so a policy instance
is a pure function of (trace, parameters, seed).

Policies never read wall clocks, module globals, or unsorted dict/set
iteration order — the sweep's cells must be bit-identical across
processes, hosts, and ``--jobs`` levels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.nvram.technology import DRAM_DDR3, MemoryTechnology
from repro.scavenger.classify import Classified
from repro.trace.record import RefBatch


@dataclass(frozen=True)
class ObjectSpan:
    """One placeable object's identity and address range."""

    oid: int
    name: str
    base: int
    size: int


@dataclass
class PolicyContext:
    """Everything a bound policy may consult while it runs."""

    page_map: PageMap
    device: MemoryTechnology
    objects: tuple[ObjectSpan, ...]
    #: tolerated writes per NVM page over the evaluated window; policies
    #: that respect it keep ``max(wear.values()) <= endurance_budget``
    endurance_budget: int
    rng: np.random.Generator
    dram: MemoryTechnology = DRAM_DDR3
    #: NV-SCAVENGER classifications, when the caller ran the analyzers
    #: (oracle-style policies require them; others may ignore them)
    classified: list[Classified] | None = None
    #: per-slot accumulated NVM write count, maintained by the evaluator
    #: (reference writes) and by :meth:`PlacementPolicy.migrate` (fills)
    slot_wear: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64))
    n_iterations: int = 10

    @property
    def page_bytes(self) -> int:
        return self.page_map.page_bytes

    @property
    def wear(self) -> dict[int, int]:
        """Page -> accumulated NVM write count, for every worn page."""
        worn = np.flatnonzero(self.slot_wear)
        return dict(zip(self.page_map.slot_pages[worn].tolist(),
                        self.slot_wear[worn].tolist()))

    def add_wear(self, slots: np.ndarray) -> None:
        """One unit of NVM wear per entry of *slots* (repeats add up)."""
        n = self.page_map.mapped_pages
        self.slot_wear = grow(self.slot_wear, n) + np.bincount(slots, minlength=n)


def grow(arr: np.ndarray, n: int) -> np.ndarray:
    """*arr* zero-extended to *n* slots (a page map only appends slots)."""
    if len(arr) >= n:
        return arr
    out = np.zeros(n, dtype=arr.dtype)
    out[:len(arr)] = arr
    return out


class PlacementPolicy(ABC):
    """ABC for placement/migration policies.

    Subclasses set :attr:`name` (the registry key) and :attr:`summary`,
    accept their knobs in ``__init__`` (forwarding them to
    ``super().__init__(**knobs)`` so :meth:`params` reports the canonical
    parameterization that keys sweep cells), and implement
    :meth:`prepare` plus whichever hooks they need.
    """

    #: registry key (kebab-free snake_case; stable across releases)
    name: str = ""
    #: one-line description for ``nvscavenger policies ls``
    summary: str = ""

    def __init__(self, **params) -> None:
        self._params = {k: params[k] for k in sorted(params)}
        self.ctx: PolicyContext | None = None
        self.to_dram = 0
        self.to_nvram = 0
        self.bytes_moved = 0

    # ------------------------------------------------------------------
    def params(self) -> dict:
        """Canonical parameter dict (sorted keys; cell-key input)."""
        return dict(self._params)

    def bind(self, ctx: PolicyContext) -> None:
        """Attach to a fresh context and lay down the initial placement."""
        self.ctx = ctx
        self.to_dram = self.to_nvram = self.bytes_moved = 0
        self.prepare()

    # -------------------------------------------------- decision hooks
    @abstractmethod
    def prepare(self) -> None:
        """Initial placement into ``self.ctx.page_map``."""

    def pre_access(self, batch: RefBatch) -> None:
        """Called before *batch* is charged to the pools — the only hook
        that can act ahead of traffic (endurance guards)."""

    def observe(self, batch: RefBatch) -> None:
        """Called after *batch* is charged; accumulate statistics here."""

    def end_epoch(self, iteration: int) -> None:
        """Called at each iteration boundary; issue migrations here."""

    # ----------------------------------------------------- helpers
    def place_all(self, pool: MemoryPool) -> None:
        """Map every object span to *pool*."""
        assert self.ctx is not None
        for obj in self.ctx.objects:
            self.ctx.page_map.assign_range(obj.base, obj.size, pool)

    def migrate(self, page: int, pool: MemoryPool) -> bool:
        """Move one page, with the accounting every policy shares: a
        promotion/demotion copies ``page_bytes``, and a page filled into
        NVM wears its cells once."""
        assert self.ctx is not None
        pm = self.ctx.page_map
        if not pm.migrate_page(page, pool):
            return False
        self._account(pm.slots_of_pages(np.array([page], dtype=np.uint64)), pool)
        return True

    def migrate_slots(self, slots: np.ndarray, pool: MemoryPool) -> np.ndarray:
        """Batch :meth:`migrate` over distinct mapped *slots*; returns the
        mask of slots that actually moved."""
        assert self.ctx is not None
        slots = np.asarray(slots, dtype=np.int64)
        moved = self.ctx.page_map.migrate_slots(slots, pool)
        self._account(slots[moved], pool)
        return moved

    def _account(self, moved: np.ndarray, pool: MemoryPool) -> None:
        n = len(moved)
        if pool == MemoryPool.NVRAM:
            self.to_nvram += n
            self.ctx.add_wear(moved)
        else:
            self.to_dram += n
        self.bytes_moved += n * self.ctx.page_bytes

    def slot_counts(self, addrs: np.ndarray) -> np.ndarray:
        """Per-slot reference counts of *addrs* (``int64``, one entry per
        mapped page); addresses off the map are dropped."""
        pm = self.ctx.page_map
        slots = pm.slots_of_batch(addrs)
        return np.bincount(slots[slots >= 0], minlength=pm.mapped_pages)

    @property
    def migrations(self) -> int:
        return self.to_dram + self.to_nvram

    # ------------------------------------------------------------------
    @staticmethod
    def page_counts(addrs: np.ndarray, page_bytes: int) -> tuple[list[int], list[int]]:
        """(pages, counts) of the given addresses, page-sorted."""
        if len(addrs) == 0:
            return [], []
        shift = np.uint64(page_bytes.bit_length() - 1)
        uniq, counts = np.unique(np.asarray(addrs, np.uint64) >> shift,
                                 return_counts=True)
        return [int(p) for p in uniq.tolist()], [int(c) for c in counts.tolist()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kv = ", ".join(f"{k}={v!r}" for k, v in self._params.items())
        return f"{type(self).__name__}({kv})"
