"""Scalar reference implementation of the memory controller.

This is the original per-access Python loop over the bank arrays. The
production :class:`~repro.powersim.controller.MemoryController` computes
the same row-buffer state transitions with array passes and keeps only
the timing recurrence sequential; this implementation is kept as the
ground truth for differential testing (`tests/test_powersim_vectorized.py`
drives randomized multi-batch streams through both and requires
bit-identical bank, rank and controller state) and as the baseline for
the throughput benchmark.
"""

from __future__ import annotations

from repro.powersim.controller import MemoryController
from repro.trace.record import RefBatch


class ReferenceController(MemoryController):
    """Same state and timings as :class:`MemoryController`; processes a
    batch one access at a time."""

    def process_batch(self, batch: RefBatch) -> None:
        """Run one batch of memory accesses through the controller."""
        if len(batch) == 0:
            return
        flat_bank, row = self.mapping.flat_bank_batch(batch.addr)
        is_write = batch.is_write
        open_row = self.banks.open_row
        busy = self.banks.busy_until
        acts = self.banks.activations
        dirty = self.banks.dirty
        n_banks_per_rank = self.device.n_banks
        now = self._now
        st = self.stats
        t_act, t_pre, t_burst, t_wr = self._t_act, self._t_pre, self._t_burst, self._t_wr
        turnaround = self.tech.channel_turnaround_ns
        close_after = self.row_policy == "closed"
        prev_write = self._prev_write
        for i in range(len(batch)):
            b = int(flat_bank[i])
            r = int(row[i])
            w = bool(is_write[i])
            # write-to-read bus turnaround (asymmetric-write devices)
            if prev_write and not w and turnaround > 0.0:
                now += turnaround
            prev_write = w
            bank_ready = busy[b]
            cur = open_row[b]
            if cur == r:
                st.row_hits += 1
                col_ready = bank_ready
            else:
                st.row_misses += 1
                delay = t_act
                if cur >= 0:
                    st.precharges += 1
                    delay += t_wr if dirty[b] else t_pre
                dirty[b] = False
                open_row[b] = r
                acts[b] += 1
                col_ready = bank_ready + delay
            if w:
                dirty[b] = True
            if col_ready > now:
                st.bank_stall_ns += col_ready - now
            burst_start = col_ready if col_ready > now else now
            now = burst_start + t_burst
            busy[b] = burst_start + t_burst
            activity = self.ranks[b // n_banks_per_rank].activity
            if w:
                activity.writes += 1
            else:
                activity.reads += 1
            if cur != r:
                activity.activations += 1
            activity.busy_ns += t_burst
            if w:
                st.writes += 1
            else:
                st.reads += 1
            if close_after:
                # closed-page policy: auto-precharge after every access
                st.precharges += 1
                if dirty[b]:
                    busy[b] += t_wr
                    dirty[b] = False
                open_row[b] = -1
        self._now = now
        self._prev_write = prev_write
        st.elapsed_ns = max(now, float(busy.max()))
