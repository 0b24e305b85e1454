"""Differential tests: two-phase MemoryController vs the scalar reference.

The production controller must be *bit-identical* to
:class:`~repro.powersim.reference.ReferenceController` after every batch
of a multi-batch stream: bank arrays (open rows, ready times,
activations, dirty bits), every :class:`ControllerStats` field, every
rank's activity, the channel cursor and the last-access-was-a-write flag.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nvram.technology import DRAM_DDR3, PCRAM, STTRAM
from repro.powersim.config import TABLE3_DEVICE, DeviceConfig
from repro.powersim.controller import MemoryController
from repro.powersim.reference import ReferenceController
from repro.powersim.timing import TimedMemorySystem
from repro.trace.record import RefBatch

DEV = TABLE3_DEVICE
#: byte strides of the default ``row:rank:bank:col`` mapping
BANK_STRIDE = DEV.row_bytes
RANK_STRIDE = BANK_STRIDE * DEV.n_banks
ROW_STRIDE = RANK_STRIDE * DEV.n_ranks
TECHS = {"DDR3": DRAM_DDR3, "PCRAM": PCRAM, "STTRAM": STTRAM}


def _batch(addrs, writes) -> RefBatch:
    n = len(addrs)
    return RefBatch(
        addr=np.asarray(addrs, dtype=np.uint64),
        is_write=np.asarray(writes, dtype=bool).reshape(n),
        size=np.full(n, 64, np.uint8),
        oid=np.full(n, -1, np.int32),
    )


def _assert_same_state(ref: MemoryController, vec: MemoryController) -> None:
    for name in ("open_row", "busy_until", "activations", "dirty"):
        np.testing.assert_array_equal(
            getattr(ref.banks, name), getattr(vec.banks, name), err_msg=name)
    assert dataclasses.asdict(ref.stats) == dataclasses.asdict(vec.stats)
    for r_ref, r_vec in zip(ref.ranks, vec.ranks):
        assert r_ref.activity == r_vec.activity, r_ref.rank_id
    assert ref._now == vec._now
    assert ref._prev_write == vec._prev_write


def _assert_equivalent(batches, tech, row_policy="open", scheme="row:rank:bank:col",
                       device=DEV):
    ref = ReferenceController(device, tech, row_policy, scheme)
    vec = MemoryController(device, tech, row_policy, scheme)
    for batch in batches:
        ref.process_batch(batch)
        vec.process_batch(batch)
        _assert_same_state(ref, vec)


# -- generated streams ------------------------------------------------------

#: an access = (rank, bank, row, col, is_write) over a small grid so that
#: hits, conflicts and dirty closes are all common
_access = st.tuples(
    st.integers(0, 2), st.integers(0, 3), st.integers(0, 5),
    st.integers(0, 3), st.booleans(),
)
_stream = st.lists(st.lists(_access, max_size=60), min_size=1, max_size=6)


def _to_batch(ops) -> RefBatch:
    addrs = [r * ROW_STRIDE + k * RANK_STRIDE + b * BANK_STRIDE + c * DEV.line_bytes
             for k, b, r, c, _ in ops]
    return _batch(addrs, [w for *_, w in ops])


@pytest.mark.parametrize("row_policy", ["open", "closed"])
@pytest.mark.parametrize("tech", sorted(TECHS))
@given(stream=_stream)
@settings(max_examples=40, deadline=None)
def test_random_streams(stream, tech, row_policy):
    _assert_equivalent([_to_batch(ops) for ops in stream], TECHS[tech], row_policy)


@pytest.mark.parametrize("scheme", ["row:rank:bank:col", "row:col:rank:bank"])
@given(
    stream=st.lists(
        st.lists(st.tuples(st.integers(0, (1 << 32) - 1), st.booleans()), max_size=80),
        min_size=1, max_size=4),
    row_policy=st.sampled_from(["open", "closed"]),
)
@settings(max_examples=40, deadline=None)
def test_arbitrary_addresses(stream, scheme, row_policy):
    """Byte addresses anywhere in (and past) the device's capacity."""
    batches = [_batch([a for a, _ in ops], [w for _, w in ops]) for ops in stream]
    _assert_equivalent(batches, PCRAM, row_policy, scheme)


# -- targeted patterns ------------------------------------------------------

def _rng_stream(seed, n_batches, make):
    rng = np.random.default_rng(seed)
    return [make(rng) for _ in range(n_batches)]


@pytest.mark.parametrize("row_policy", ["open", "closed"])
@pytest.mark.parametrize("tech", sorted(TECHS))
def test_single_bank_storm(tech, row_policy):
    """Every access hits one bank: the bank-ready time dominates."""
    def make(rng):
        n = 500
        rows = rng.integers(0, 4, n)
        return _batch(rows * ROW_STRIDE + 3 * BANK_STRIDE, rng.random(n) < 0.4)
    _assert_equivalent(_rng_stream(1, 4, make), TECHS[tech], row_policy)


@pytest.mark.parametrize("row_policy", ["open", "closed"])
@pytest.mark.parametrize("tech", sorted(TECHS))
def test_ping_pong_rows(tech, row_policy):
    """Two rows alternate in one bank: every access conflicts, writes leave
    the row dirty for the next close."""
    rows = np.tile([0, 1], 200)
    writes = np.tile([True, True, False, False], 100)
    batch = _batch(rows * ROW_STRIDE, writes)
    _assert_equivalent([batch, batch, batch], TECHS[tech], row_policy)


@pytest.mark.parametrize("tech", sorted(TECHS))
def test_read_after_write(tech):
    """Write then read the same line: row hit, bus turnaround in between."""
    addrs = np.repeat(np.arange(50) * 4 * BANK_STRIDE, 2)
    writes = np.tile([True, False], 50)
    batch = _batch(addrs, writes)
    _assert_equivalent([batch, _batch(addrs[::-1], writes)], TECHS[tech])


@pytest.mark.parametrize("row_policy", ["open", "closed"])
def test_empty_batches(row_policy):
    empty = RefBatch.empty()
    one = _batch([ROW_STRIDE], [True])
    _assert_equivalent([empty, one, empty, one, empty], PCRAM, row_policy)


@pytest.mark.parametrize("row_policy", ["open", "closed"])
def test_addresses_near_capacity(row_policy):
    cap = DEV.capacity_bytes
    addrs = np.array([cap - 64, cap - BANK_STRIDE, cap - ROW_STRIDE, 0,
                      cap - 64, cap, cap + 64, 2 * cap - 64], dtype=np.uint64)
    writes = np.array([True, False, True, True, False, True, False, True])
    batches = [_batch(addrs, writes), _batch(addrs[::-1], writes[::-1])]
    _assert_equivalent(batches, PCRAM, row_policy)


def test_small_device():
    """A one-rank, two-bank device: every access contends for two banks."""
    dev = DeviceConfig(n_ranks=1, n_banks=2, n_rows=16, n_cols=16)

    def make(rng):
        n = 300
        return _batch(rng.integers(0, dev.capacity_bytes, n), rng.random(n) < 0.5)
    for row_policy in ("open", "closed"):
        _assert_equivalent(_rng_stream(5, 3, make), PCRAM, row_policy, device=dev)


@pytest.mark.parametrize("tech", sorted(TECHS))
def test_timed_system_with_idle_gaps(tech):
    """``process_timed`` splits batches at idle gaps and moves the channel
    cursor between controller calls."""
    rng = np.random.default_rng(9)
    ref_sys = TimedMemorySystem(TECHS[tech])
    ref_sys.controller = ReferenceController(DEV, TECHS[tech])
    vec_sys = TimedMemorySystem(TECHS[tech])
    t = 0.0
    for _ in range(4):
        n = 400
        batch = _batch(rng.integers(0, 1 << 26, n) // 64 * 64, rng.random(n) < 0.3)
        # bursts of back-to-back arrivals separated by long idle gaps
        gaps = np.where(rng.random(n) < 0.05, rng.uniform(50, 500, n), 0.5)
        arrivals = t + np.cumsum(gaps)
        t = float(arrivals[-1])
        ref_sys.process_timed(batch, arrivals)
        vec_sys.process_timed(batch, arrivals)
        _assert_same_state(ref_sys.controller, vec_sys.controller)
        assert ref_sys._idle_ns == vec_sys._idle_ns
    assert ref_sys.report() == vec_sys.report()
