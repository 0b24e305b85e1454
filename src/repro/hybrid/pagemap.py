"""Page table for a horizontal hybrid memory: which pool holds each page.

Pages are fixed-size; each maps to :attr:`MemoryPool.DRAM` or
:attr:`MemoryPool.NVRAM`. Every mapped page owns a *slot*: an index into
a compact per-slot ``int8`` home array. Slots are append-only — mapping a
new page adds a slot at the end and never renumbers existing ones — so
callers (the policy hooks) can keep per-page state in plain arrays
indexed by slot.

Lookups go through a dense index: mapped pages are grouped into a few
*spans*, each a contiguous page range with an ``int64`` slot table
(``-1`` for gap pages inside the span). Small gaps between mapped runs
are folded into one span, up to a total gap budget proportional to the
mapped page count, so a typical globals + heap layout is one span and a
batch lookup is a subtract, a clamp and two gathers. Sparse maps (page 0
together with the top page of a 64-bit space) stay separate spans and
cost O(mapped pages), not O(address span). Mapping a page outside every
span copies the slot arrays and drops the index, so callers map pages in
batches (:meth:`PageMap.assign_range`, :meth:`PageMap.migrate_pages`).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import PlacementError

#: top of the (64-bit) address space
ADDRESS_SPACE_BYTES = 1 << 64
#: gap pages an index may fill per mapped page, on top of a flat allowance
GAP_PAGES_PER_MAPPED = 4
GAP_PAGES_FLAT = 1 << 17


class MemoryPool(enum.IntEnum):
    DRAM = 0
    NVRAM = 1


class PageMap:
    """Page -> pool mapping with slot-indexed array storage.

    Pages are keyed by page number (address // page_bytes). Unmapped pages
    default to DRAM (the safe home).
    """

    def __init__(self, page_bytes: int = 4096) -> None:
        if page_bytes <= 0 or page_bytes & (page_bytes - 1):
            raise PlacementError("page_bytes must be a positive power of two")
        self.page_bytes = page_bytes
        self._shift = page_bytes.bit_length() - 1
        #: page number of each slot, in slot order
        self._slot_pages = np.empty(0, dtype=np.uint64)
        #: pool of each slot, plus one trailing DRAM entry that slot -1
        #: (an unmapped page) reads
        self._homes = np.zeros(1, dtype=np.int8)
        #: lookup index (span starts, lengths, table offsets, slot table);
        #: None when the slot set changed since it was built
        self._index: tuple | None = None
        self.migrations = 0

    # ------------------------------------------------------------------
    def page_of(self, addr: int) -> int:
        return addr >> self._shift

    def pages_of_range(self, base: int, size: int) -> np.ndarray:
        """Page numbers covering ``[base, base+size)``.

        A zero-size range covers no pages (an empty object owns no
        memory); the range may end exactly at the top of the 64-bit
        address space, but a range running past it (or starting below
        zero) names pages that do not exist and raises
        :class:`PlacementError`.
        """
        base, size = int(base), int(size)
        if size <= 0:
            return np.empty(0, dtype=np.uint64)
        if base < 0 or base + size > ADDRESS_SPACE_BYTES:
            raise PlacementError(
                f"range [{base:#x}, {base + size:#x}) leaves the 64-bit "
                "address space")
        first = base >> self._shift
        last = (base + size - 1) >> self._shift
        return np.arange(last - first + 1, dtype=np.uint64) + np.uint64(first)

    # ------------------------------------------------------------------
    @property
    def mapped_pages(self) -> int:
        return len(self._slot_pages)

    @property
    def slot_pages(self) -> np.ndarray:
        """Page number of every slot (read-only view)."""
        view = self._slot_pages.view()
        view.flags.writeable = False
        return view

    @property
    def slot_pools(self) -> np.ndarray:
        """Pool (``int8`` :class:`MemoryPool` value) of every slot
        (read-only view)."""
        view = self._homes[:-1]
        view.flags.writeable = False
        return view

    def _lookup_index(self) -> tuple:
        if self._index is None:
            self._index = self._build_index()
        return self._index

    def _build_index(self) -> tuple:
        """Group the mapped pages into spans and lay out their slot table.

        Gaps between consecutive mapped runs are merged smallest-first
        while their total stays within the gap budget; every other gap
        starts a new span.
        """
        n = len(self._slot_pages)
        if n == 0:
            empty = np.empty(0, dtype=np.uint64)
            return empty, empty, empty, np.full(1, -1, dtype=np.int64)
        order = np.argsort(self._slot_pages, kind="stable")
        sp = self._slot_pages[order]
        gaps = sp[1:] - sp[:-1] - np.uint64(1)  # unmapped pages between
        budget = GAP_PAGES_FLAT + GAP_PAGES_PER_MAPPED * n
        # clamp before the running sum: an unmergeable gap cannot overflow
        clamped = np.minimum(gaps, np.uint64(budget + 1))
        by_size = np.argsort(clamped, kind="stable")
        n_merged = int(np.searchsorted(np.cumsum(clamped[by_size]), budget,
                                       side="right"))
        breaks = np.ones(len(gaps), dtype=bool)
        breaks[by_size[:n_merged]] = False
        first = np.concatenate([[0], np.nonzero(breaks)[0] + 1])
        last = np.append(first[1:], n) - 1
        starts = sp[first]
        lens = sp[last] - starts + np.uint64(1)
        offsets = np.concatenate([[0], np.cumsum(lens)[:-1]]).astype(np.uint64)
        # one trailing -1: every out-of-span position is clamped onto it
        table = np.full(int(lens.sum()) + 1, -1, dtype=np.int64)
        span_of = np.repeat(np.arange(len(starts)), (last - first + 1))
        table[offsets[span_of] + (sp - starts[span_of])] = order
        return starts, lens, offsets, table

    def _positions(self, pages: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(slot-table positions of *pages*, the table)."""
        starts, lens, offsets, table = self._lookup_index()
        end = np.uint64(len(table) - 1)
        if len(starts) == 1:
            # pages below the span wrap around in uint64 and clamp to end
            return np.minimum(pages - starts[0], end), table
        span = np.maximum(np.searchsorted(starts, pages, side="right") - 1, 0)
        off = pages - starts[span]
        return np.where(off < lens[span], offsets[span] + off, end), table

    def slots_of_pages(self, pages) -> np.ndarray:
        """Slot of each page number (``int64``; ``-1`` = unmapped)."""
        pages = np.asarray(pages, dtype=np.uint64)
        if len(self._slot_pages) == 0:
            return np.full(pages.shape, -1, dtype=np.int64)
        pos, table = self._positions(pages)
        return table[pos]

    def slots_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Slot of the page under each address (``-1`` = unmapped)."""
        return self.slots_of_pages(
            np.asarray(addrs, dtype=np.uint64) >> np.uint64(self._shift))

    def pools_of_pages(self, pages) -> np.ndarray:
        """Vectorized pool of page numbers; ``int8`` MemoryPool values."""
        return self._homes[self.slots_of_pages(pages)]

    def pool_of_batch(self, addrs: np.ndarray) -> np.ndarray:
        """Vectorized pool lookup; returns int8 array of MemoryPool values."""
        return self._homes[self.slots_of_batch(addrs)]

    def pool_of_page(self, page: int) -> MemoryPool:
        """Pool of one page number (unmapped pages default to DRAM)."""
        return MemoryPool(int(self.pools_of_pages(np.uint64(page))))

    def pool_of(self, addr: int) -> MemoryPool:
        return self.pool_of_page(int(addr) >> self._shift)

    # ------------------------------------------------------------------
    def _insert(self, pages: np.ndarray, pool: MemoryPool) -> None:
        """Give distinct unmapped *pages* new slots homed in *pool*."""
        if len(pages) == 0:
            return
        n = len(self._slot_pages)
        self._homes = np.concatenate([
            self._homes[:-1], np.full(len(pages), pool, dtype=np.int8),
            self._homes[-1:]])
        self._slot_pages = np.concatenate([self._slot_pages, pages])
        if self._index is not None:
            pos, table = self._positions(pages)
            if (pos < np.uint64(len(table) - 1)).all():
                # every page falls in a gap of an existing span
                table[pos] = np.arange(n, n + len(pages))
                return
        self._index = None

    def assign_range(self, base: int, size: int, pool: MemoryPool) -> int:
        """Map every page of ``[base, base+size)`` to *pool*; returns pages.

        Pages already mapped are overwritten (a later assignment wins).
        """
        pages = self.pages_of_range(base, size)
        slots = self.slots_of_pages(pages)
        mapped = slots >= 0
        self._homes[slots[mapped]] = pool
        self._insert(pages[~mapped], pool)
        return len(pages)

    def migrate_slots(self, slots: np.ndarray, pool: MemoryPool) -> np.ndarray:
        """Move distinct mapped *slots* to *pool*; returns the mask of
        slots that actually changed pools."""
        slots = np.asarray(slots, dtype=np.int64)
        changed = self._homes[slots] != pool
        self._homes[slots[changed]] = pool
        self.migrations += int(np.count_nonzero(changed))
        return changed

    def migrate_pages(self, pages, pool: MemoryPool) -> np.ndarray:
        """Move pages to *pool*, mapping unmapped ones; returns a mask of
        the entries that changed a page's pool.

        Equivalent to :meth:`migrate_page` on each entry in order: a
        repeated page changes at most at its first occurrence, and an
        unmapped page moved to DRAM (its default) stays unmapped.
        """
        pages = np.asarray(pages, dtype=np.uint64).reshape(-1)
        uniq, first = np.unique(pages, return_index=True)
        slots = self.slots_of_pages(uniq)
        changed = self._homes[slots] != pool
        mapped = slots >= 0
        self._homes[slots[changed & mapped]] = pool
        self._insert(uniq[changed & ~mapped], pool)
        self.migrations += int(np.count_nonzero(changed))
        out = np.zeros(len(pages), dtype=bool)
        out[first[changed]] = True
        return out

    def migrate_page(self, page: int, pool: MemoryPool) -> bool:
        """Move one page; returns True if it actually changed pools."""
        return bool(self.migrate_pages(np.uint64(page), pool)[0])

    # ------------------------------------------------------------------
    def bytes_in_pool(self, pool: MemoryPool) -> int:
        return int(np.count_nonzero(self._homes[:-1] == pool)) * self.page_bytes
