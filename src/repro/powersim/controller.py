"""Memory controller: transaction flow, address mapping, row policy,
bank-state updates (paper §IV, module 2).

Open-page policy with in-order (FCFS) issue: a transaction becomes

* a column access when its row is open in the target bank (row hit);
* precharge + activate + column access otherwise.

Timing is tracked with a channel cursor plus per-bank busy times: the data
bus serializes bursts; activates and (long NVRAM) write recoveries busy
only their bank, so bank-level parallelism hides them — this is exactly
the mechanism that makes STTRAM/MRAM *busier per unit time* than PCRAM
and reproduces Table VI's "faster NVRAM draws more average power".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nvram.technology import MemoryTechnology
from repro.powersim.addressing import AddressMapping
from repro.powersim.bankstate import BankArray
from repro.powersim.config import DeviceConfig
from repro.powersim.rank import Rank
from repro.trace.record import RefBatch


@dataclass
class ControllerStats:
    """Transaction and command counts after a run."""

    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0  # activate (+precharge when a row was open)
    precharges: int = 0
    elapsed_ns: float = 0.0
    bank_stall_ns: float = 0.0  # time the channel waited on busy banks

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


class MemoryController:
    """Processes memory-access batches against one technology's timings."""

    def __init__(
        self,
        device: DeviceConfig,
        tech: MemoryTechnology,
        row_policy: str = "open",
        mapping_scheme: str = "row:rank:bank:col",
    ) -> None:
        if row_policy not in ("open", "closed"):
            raise ValueError(f"row_policy must be 'open' or 'closed', got {row_policy!r}")
        self.device = device
        self.tech = tech
        self.row_policy = row_policy
        self.mapping = AddressMapping(device, scheme=mapping_scheme)
        self.banks = BankArray(device.total_banks)
        self.ranks = [
            Rank(r, self.banks, r * device.n_banks, device.n_banks)
            for r in range(device.n_ranks)
        ]
        self.stats = ControllerStats()
        self._now = 0.0  # channel cursor, ns
        self._prev_write = False
        # command timings: activate = row fetch (read-latency class);
        # precharge modelled at half a row access, DRAMSim2-ish tRP ~ tRCD.
        self._t_act = tech.read_latency_ns
        self._t_pre = tech.read_latency_ns * 0.5
        self._t_burst = device.burst_ns
        # closing a dirty row writes back only the written columns, so the
        # array write-back costs a fraction of the full-row write latency
        self._t_wr = tech.write_latency_ns * 0.45

    # ------------------------------------------------------------------
    def process_batch(self, batch: RefBatch) -> None:
        """Run one batch of memory accesses through the controller.

        Two phases. Row-buffer state (hit/miss, which misses close a dirty
        row, final open rows, per-rank counts) does not depend on time, so
        it is computed with array passes over the batch sorted by bank.
        The max-plus channel/bank timing is the only true recurrence; it
        runs as one scan over Python lists.
        """
        n = len(batch)
        if n == 0:
            return
        flat_bank, row = self.mapping.flat_bank_batch(batch.addr)
        is_write = batch.is_write
        banks = self.banks
        closed = self.row_policy == "closed"
        n_total = self.device.total_banks

        # -- phase 1: row-buffer state, per bank in stable (issue) order;
        # the narrowest dtype that holds a bank index sorts by radix
        order = np.argsort(
            flat_bank.astype(np.min_scalar_type(n_total - 1)), kind="stable")
        s_bank = flat_bank[order]
        s_row = row[order].astype(np.int64)
        s_write = is_write[order]
        first = np.empty(n, dtype=bool)
        first[0] = True
        np.not_equal(s_bank[1:], s_bank[:-1], out=first[1:])
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        # row open when each access arrives: the bank's previous access
        # left its row open (open page) or precharged it (closed page)
        prev_row = np.full(n, -1, dtype=np.int64)
        if not closed:
            prev_row[1:] = s_row[:-1]
        prev_row[first] = banks.open_row[s_bank[first]]
        miss = prev_row != s_row
        precharge = miss & (prev_row >= 0)
        # dirty after each access: any write since the bank's last
        # activate, or the carried-in dirty bit if no activate yet
        seg_start = np.maximum.accumulate(np.where(miss | first, np.arange(n), 0))
        writes = np.cumsum(s_write)
        dirty_after = (writes - writes[seg_start] + s_write[seg_start] > 0) | (
            ~miss[seg_start] & banks.dirty[s_bank]
        )
        dirty_before = np.empty(n, dtype=bool)
        dirty_before[1:] = dirty_after[:-1]
        dirty_before[first] = banks.dirty[s_bank[first]]
        # a hit is a column access at bus speed; a miss activates (paying
        # the array read latency), after a precharge if a row was open.
        # Reads and writes both hit the row buffer at bus speed; the
        # technology's long write latency is paid when a *dirty* row is
        # closed (array write-back on precharge), the standard PCM
        # row-buffer organization
        s_delay = np.where(miss, self._t_act, 0.0)
        s_delay[precharge & dirty_before] = self._t_act + self._t_wr
        s_delay[precharge & ~dirty_before] = self._t_act + self._t_pre
        delay = np.empty(n, dtype=np.float64)
        delay[order] = s_delay

        last_bank = s_bank[last]
        if closed:
            banks.open_row[last_bank] = -1
            banks.dirty[last_bank] = False
        else:
            banks.open_row[last_bank] = s_row[last]
            banks.dirty[last_bank] = dirty_after[last]
        bank_acts = np.bincount(s_bank[miss], minlength=n_total)
        banks.activations += bank_acts

        st = self.stats
        n_miss = int(np.count_nonzero(miss))
        n_write = int(np.count_nonzero(is_write))
        st.row_hits += n - n_miss
        st.row_misses += n_miss
        st.precharges += int(np.count_nonzero(precharge)) + (n if closed else 0)
        st.writes += n_write
        st.reads += n - n_write

        # flat bank = rank * n_banks + bank: per-rank sums are row sums
        def per_rank(per_bank: np.ndarray) -> list[int]:
            return per_bank.reshape(self.device.n_ranks, -1).sum(axis=1).tolist()

        rank_accesses = per_rank(np.bincount(flat_bank, minlength=n_total))
        rank_writes = per_rank(np.bincount(flat_bank[is_write], minlength=n_total))
        rank_acts = per_rank(bank_acts)
        for rank, k, n_w, n_act in zip(self.ranks, rank_accesses, rank_writes, rank_acts):
            activity = rank.activity
            activity.writes += n_w
            activity.reads += k - n_w
            activity.activations += n_act
            if k:
                # one burst per access, summed in order (k * t_burst would
                # round differently)
                bursts = np.full(k + 1, self._t_burst)
                bursts[0] = activity.busy_ns
                activity.busy_ns = float(np.add.accumulate(bursts)[-1])

        # -- phase 2: channel cursor and bank-ready times, in issue order
        # write-to-read bus turnaround (asymmetric-write devices)
        turnaround = self.tech.channel_turnaround_ns
        prev_write = np.empty(n, dtype=bool)
        prev_write[0] = self._prev_write
        prev_write[1:] = is_write[:-1]
        turn = prev_write & ~is_write & (turnaround > 0.0)
        # closed page: the auto-precharge writes a dirty row back
        write_back = np.where(is_write, self._t_wr, 0.0) if closed else np.zeros(n)
        busy = banks.busy_until.tolist()
        now = self._now
        stall = st.bank_stall_ns
        t_burst = self._t_burst
        for b, d, t, wb in zip(
            flat_bank.tolist(), delay.tolist(), turn.tolist(), write_back.tolist()
        ):
            if t:
                now += turnaround
            # the bank prepares independently of the channel; only the
            # burst occupies the data bus, so activations overlap with
            # other banks' bursts
            col_ready = busy[b] + d
            if col_ready > now:
                stall += col_ready - now
                now = col_ready + t_burst
            else:
                now += t_burst
            busy[b] = now + wb
        banks.busy_until[:] = busy
        st.bank_stall_ns = stall
        self._now = now
        self._prev_write = bool(is_write[-1])
        st.elapsed_ns = max(now, float(banks.busy_until.max()))

    @property
    def elapsed_ns(self) -> float:
        return self.stats.elapsed_ns

    def activation_count(self) -> int:
        return int(self.banks.activations.sum())
