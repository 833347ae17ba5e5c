"""Batch builder and batch-native traces."""

from __future__ import annotations

from repro.workloads.batch import AccessBatch, BatchBuilder
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace

LINE = 256


def test_appending_after_build_leaves_the_batch_unchanged():
    builder = BatchBuilder(line_size=LINE)
    builder.append_write(0, 7, b"\x01" * LINE, gap_instructions=3, persistent=True)
    batch = builder.build()
    builder.append_read(1, 8, gap_instructions=5)
    builder.append_write(1, 9, b"\x02" * LINE)
    assert len(batch) == 1
    for column in (batch.cores, batch.addresses, batch.gaps, batch.persistent, batch.slots):
        assert len(column) == 1
    assert batch.payload == b"\x01" * LINE
    assert len(builder.build()) == 3


def test_generated_traces_stay_batch_native():
    trace = generate_trace(profile_by_name("bzip2"), 500, seed=1)
    batch = trace.as_batch()
    assert trace.as_batch() is batch
    assert len(trace) == 500
    assert trace.total_instructions == sum(batch.gaps)
    assert trace._accesses is None  # nothing above needed MemoryAccess objects


def test_batch_native_trace_behaves_like_a_hand_built_one():
    accesses = [
        MemoryAccess(core=0, op="write", address=0, data=bytes(LINE), gap_instructions=10),
        MemoryAccess(core=1, op="read", address=0, gap_instructions=20),
        MemoryAccess(core=1, op="write", address=1, data=b"\x01" * LINE, persistent=True),
    ]
    hand = Trace("t", accesses, threads=2)
    native = Trace.from_batch("t", AccessBatch.from_accesses(accesses), threads=2)
    assert native == hand and hand == native
    assert len(native) == 3
    assert list(native) == accesses
    assert native.writes == hand.writes
    assert native.reads == hand.reads
    assert native.total_instructions == hand.total_instructions == 30
    assert native != Trace.from_batch("t", AccessBatch.from_accesses(accesses[:2]), threads=2)
