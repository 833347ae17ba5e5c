"""Trace datatypes: validation and views."""

from __future__ import annotations

import pytest

from repro.workloads.trace import MemoryAccess, Trace

LINE = 256


class TestMemoryAccess:
    def test_write_requires_data(self):
        with pytest.raises(ValueError, match="carry line data"):
            MemoryAccess(core=0, op="write", address=0)

    def test_read_rejects_data(self):
        with pytest.raises(ValueError, match="must not carry"):
            MemoryAccess(core=0, op="read", address=0, data=bytes(LINE))

    def test_unknown_op_rejected(self):
        with pytest.raises(ValueError, match="op"):
            MemoryAccess(core=0, op="fetch", address=0)

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccess(core=0, op="read", address=0, gap_instructions=-1)

    def test_frozen(self):
        access = MemoryAccess(core=0, op="read", address=0)
        with pytest.raises(Exception):
            access.address = 1  # type: ignore[misc]


class TestTrace:
    def make(self) -> Trace:
        return Trace(
            name="t",
            accesses=[
                MemoryAccess(core=0, op="write", address=0, data=bytes(LINE), gap_instructions=10),
                MemoryAccess(core=0, op="read", address=0, gap_instructions=20),
                MemoryAccess(core=1, op="write", address=1, data=b"\x01" * LINE, gap_instructions=30),
            ],
            threads=2,
        )

    def test_len_and_iter(self):
        trace = self.make()
        assert len(trace) == 3
        assert len(list(trace)) == 3

    def test_views(self):
        trace = self.make()
        assert len(trace.writes) == 2
        assert len(trace.reads) == 1
        assert list(trace.as_batch().write_pairs()) == [
            (0, bytes(LINE)),
            (1, b"\x01" * LINE),
        ]

    def test_total_instructions(self):
        assert self.make().total_instructions == 60
