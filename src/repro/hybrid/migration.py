"""Dynamic page migration, after Ramos, Gorbatov & Bianchini [3].

The memory controller "monitors popularity and write intensity of memory
pages" and migrates pages between DRAM and PCM so that performance-critical
and frequently-written pages live in DRAM while non-critical, rarely
written pages live in PCM; the OS periodically syncs its mapping. Here the
monitor consumes the instrumented reference stream per epoch (one main-loop
iteration), ranks pages by write intensity and popularity with exponential
decay, and issues migrations against a :class:`PageMap` — the dynamic
counterpart the paper's §VII-C variance analysis argues is (mostly)
unnecessary for these applications.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hybrid.pagemap import MemoryPool, PageMap
from repro.trace.record import RefBatch
from repro.util.rng import make_rng


@dataclass
class MigrationStats:
    """Accounting over a run."""

    epochs: int = 0
    to_dram: int = 0
    to_nvram: int = 0
    #: bytes moved (each migration copies one page)
    bytes_moved: int = 0

    @property
    def migrations(self) -> int:
        return self.to_dram + self.to_nvram


class DynamicMigrator:
    """Epoch-based write-intensity monitor and migrator."""

    def __init__(
        self,
        page_map: PageMap,
        write_hot_threshold: float = 64.0,
        read_popular_threshold: float = 256.0,
        decay: float = 0.5,
        rng=0,
        max_migrations_per_epoch: int | None = None,
    ) -> None:
        """*rng* is a seed (or Generator) threaded through
        :func:`repro.util.rng.make_rng` — the migrator holds no module- or
        process-global random state, so a given (trace, seed) pair always
        produces the same :class:`MigrationStats`.
        ``max_migrations_per_epoch`` models a bounded migration engine:
        when an epoch's candidates exceed it, the survivors are a
        deterministic seeded sample.
        """
        if not (0.0 <= decay < 1.0):
            raise ConfigurationError("decay must be in [0, 1)")
        if write_hot_threshold <= 0 or read_popular_threshold <= 0:
            raise ConfigurationError("thresholds must be positive")
        if max_migrations_per_epoch is not None and max_migrations_per_epoch < 0:
            raise ConfigurationError("max_migrations_per_epoch must be >= 0")
        self.page_map = page_map
        self.write_hot = write_hot_threshold
        self.read_popular = read_popular_threshold
        self.decay = decay
        self._rng = make_rng(rng)
        self.max_migrations_per_epoch = max_migrations_per_epoch
        self._write_score: dict[int, float] = {}
        self._read_score: dict[int, float] = {}
        self.stats = MigrationStats()

    # ------------------------------------------------------------------
    def observe(self, batch: RefBatch) -> None:
        """Accumulate this epoch's per-page access counts."""
        if len(batch) == 0:
            return
        pages = (batch.addr >> np.uint64(self.page_map.page_bytes.bit_length() - 1)).astype(
            np.int64
        )
        w = batch.is_write
        for arr, score in ((pages[w], self._write_score), (pages[~w], self._read_score)):
            if arr.size == 0:
                continue
            uniq, counts = np.unique(arr, return_counts=True)
            for p, c in zip(uniq.tolist(), counts.tolist()):
                score[p] = score.get(p, 0.0) + c

    def end_epoch(self) -> tuple[int, int]:
        """Apply the policy, decay scores; returns (to_dram, to_nvram)."""
        # sorted: set iteration order is salted per process, and the
        # migration budget below must cut the same pages on every host
        pages = sorted(set(self._write_score) | set(self._read_score))
        budget = self.max_migrations_per_epoch
        if budget is not None and len(pages) > budget:
            # bounded migration engine: a seeded sample of the candidates
            # (score-agnostic, matching a controller that scans a window)
            idx = self._rng.choice(len(pages), size=budget, replace=False)
            pages = [pages[i] for i in sorted(idx.tolist())]
        wscore = np.array([self._write_score.get(p, 0.0) for p in pages])
        rscore = np.array([self._read_score.get(p, 0.0) for p in pages])
        pages = np.array(pages, dtype=np.uint64)
        # frequently-written pages belong in DRAM; read-popular and
        # read-only pages in NVRAM (pages are distinct, so one batch
        # move per pool equals moving them one at a time)
        hot = wscore >= self.write_hot
        cold = ~hot & ((rscore >= self.read_popular) | ((rscore > 0) & (wscore == 0)))
        to_dram = int(self.page_map.migrate_pages(pages[hot], MemoryPool.DRAM).sum())
        to_nvram = int(self.page_map.migrate_pages(pages[cold], MemoryPool.NVRAM).sum())
        # exponential decay so stale behavior ages out
        for score in (self._write_score, self._read_score):
            for p in list(score):
                score[p] *= self.decay
                if score[p] < 1e-6:
                    del score[p]
        self.stats.epochs += 1
        self.stats.to_dram += to_dram
        self.stats.to_nvram += to_nvram
        self.stats.bytes_moved += (to_dram + to_nvram) * self.page_map.page_bytes
        return to_dram, to_nvram
