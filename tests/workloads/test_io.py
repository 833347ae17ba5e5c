"""Trace serialisation round trips."""

from __future__ import annotations

import pytest

from repro.workloads.generator import generate_trace
from repro.workloads.io import load_trace, save_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace

LINE = 256


class TestRoundTrip:
    def test_generated_trace_roundtrips_exactly(self, tmp_path):
        trace = generate_trace(profile_by_name("gcc"), 1_500, seed=5)
        path = tmp_path / "gcc.dwtr"
        save_trace(trace, path)
        loaded = load_trace(path)
        assert loaded.name == trace.name
        assert loaded.threads == trace.threads
        assert len(loaded) == len(trace)
        for a, b in zip(trace, loaded):
            assert (a.core, a.op, a.address, a.data, a.gap_instructions, a.persistent) == (
                b.core, b.op, b.address, b.data, b.gap_instructions, b.persistent
            )

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.dwtr"
        save_trace(Trace("empty", []), path)
        loaded = load_trace(path)
        assert loaded.name == "empty"
        assert len(loaded) == 0

    def test_unicode_name(self, tmp_path):
        path = tmp_path / "t.dwtr"
        save_trace(Trace("трасса-β", []), path)
        assert load_trace(path).name == "трасса-β"


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.dwtr"
        path.write_bytes(b"NOPE" + bytes(32))
        with pytest.raises(ValueError, match="bad magic"):
            load_trace(path)

    def test_wrong_payload_size_rejected(self, tmp_path):
        trace = Trace(
            "bad",
            [MemoryAccess(core=0, op="write", address=0, data=b"\x01" * 128)],
        )
        with pytest.raises(ValueError, match="payload"):
            save_trace(trace, tmp_path / "bad.dwtr", line_size_bytes=256)

    def test_custom_line_size(self, tmp_path):
        trace = Trace(
            "small",
            [MemoryAccess(core=0, op="write", address=3, data=b"\x07" * 64, persistent=True)],
        )
        path = tmp_path / "small.dwtr"
        save_trace(trace, path, line_size_bytes=64)
        loaded = load_trace(path)
        assert loaded.accesses[0].data == b"\x07" * 64
        assert loaded.accesses[0].persistent


class TestCorruptFiles:
    """Cut-off and padded files fail with a ``ValueError`` naming the byte
    offset, never a bare ``struct.error`` or a silently short trace."""

    @pytest.fixture
    def blob(self, tmp_path) -> bytes:
        trace = Trace(
            "cut",
            [
                MemoryAccess(core=0, op="write", address=1, data=b"\x05" * LINE, persistent=True),
                MemoryAccess(core=1, op="read", address=1, gap_instructions=3),
                MemoryAccess(core=0, op="write", address=2, data=b"\x06" * LINE),
            ],
            threads=2,
        )
        path = tmp_path / "whole.dwtr"
        save_trace(trace, path)
        return path.read_bytes()

    # header 12 bytes, name "cut" 3, count 4, records 3 x 15, payloads 2 x 256
    @pytest.mark.parametrize(
        "keep, section",
        [
            (5, "header"),
            (13, "trace name"),
            (17, "access count"),
            (30, "access records"),
            (63, "access records"),
            (64, "write payloads"),
            (64 + LINE, "write payloads"),
            (64 + 2 * LINE - 1, "write payloads"),
        ],
    )
    def test_truncation_raises_value_error_with_offset(self, tmp_path, blob, keep, section):
        assert len(blob) == 64 + 2 * LINE
        path = tmp_path / "cut.dwtr"
        path.write_bytes(blob[:keep])
        with pytest.raises(ValueError, match=rf"truncated.*{section}.*file ends at byte {keep}"):
            load_trace(path)

    def test_trailing_bytes_rejected(self, tmp_path, blob):
        path = tmp_path / "padded.dwtr"
        path.write_bytes(blob + b"\x00\x01")
        with pytest.raises(ValueError, match=rf"trailing bytes.*2 after byte {len(blob)}"):
            load_trace(path)

    def test_loaded_trace_is_batch_native(self, tmp_path, blob):
        path = tmp_path / "whole.dwtr"
        path.write_bytes(blob)
        loaded = load_trace(path)
        batch = loaded.as_batch()
        assert batch.payload == b"\x05" * LINE + b"\x06" * LINE
        assert bytes(batch.persistent) == b"\x01\x00\x00"
        assert loaded.threads == 2 and len(loaded) == 3
