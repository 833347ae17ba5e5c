"""Trace serialisation: save/load memory traces as compact binary files.

Traces drive every experiment, and regenerating a large one costs far more
than re-reading it.  The format is a small self-describing binary: a
header, then one fixed-width record per access with the line payloads of
writes appended in order.  Round-tripping is exact (a tested invariant),
so saved traces make experiments bit-reproducible across sessions.  Both
directions go through the trace's columnar batch: the payload section is
the batch's ``payload`` column verbatim.  A file that is cut short or
carries trailing bytes is rejected with a ``ValueError`` naming the byte
offset.

Format (little-endian):

    magic  b"DWTR"           4 bytes
    version u16              currently 1
    line_size u16
    threads u16
    name_len u16, name utf-8
    count u32
    records: count x (core u16, flags u8, address u64, gap u32)
        flags bit0 = is write, bit1 = persistent
    payloads: line_size bytes per write record, in record order
"""

from __future__ import annotations

import pathlib
import struct

from repro.workloads.batch import OP_WRITE, BatchBuilder
from repro.workloads.trace import Trace

_MAGIC = b"DWTR"
_VERSION = 1
_HEADER = struct.Struct("<4sHHHH")
_COUNT = struct.Struct("<I")
_RECORD = struct.Struct("<HBQI")

_FLAG_WRITE = 0x01
_FLAG_PERSISTENT = 0x02


def save_trace(trace: Trace, path: str | pathlib.Path, line_size_bytes: int = 256) -> None:
    """Write a trace to ``path`` in the DWTR binary format."""
    name_bytes = trace.name.encode("utf-8")
    if len(name_bytes) > 0xFFFF:
        raise ValueError("trace name too long")
    batch = trace.as_batch()
    if batch.write_count and batch.line_size != line_size_bytes:
        raise ValueError(
            f"trace writes carry {batch.line_size}-byte payloads, expected {line_size_bytes}"
        )
    pack = _RECORD.pack
    records = [
        pack(
            core,
            (_FLAG_WRITE | (_FLAG_PERSISTENT if persistent else 0)) if op == OP_WRITE else 0,
            address,
            gap,
        )
        for op, core, address, gap, persistent in zip(
            batch.ops, batch.cores, batch.addresses, batch.gaps, batch.persistent
        )
    ]
    pathlib.Path(path).write_bytes(
        b"".join(
            [
                _HEADER.pack(_MAGIC, _VERSION, line_size_bytes, trace.threads, len(name_bytes)),
                name_bytes,
                _COUNT.pack(len(batch)),
                *records,
                batch.payload,
            ]
        )
    )


def _require(raw: bytes, offset: int, size: int, what: str) -> None:
    """Raise unless ``raw`` holds ``size`` bytes of ``what`` at ``offset``."""
    if offset + size > len(raw):
        raise ValueError(
            f"truncated trace file: {what} needs bytes {offset}-{offset + size}, "
            f"file ends at byte {len(raw)}"
        )


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace previously written by :func:`save_trace`.

    Raises ``ValueError`` for a bad magic or version, a file cut off
    anywhere (header, name, records or payloads) and trailing bytes.
    """
    raw = pathlib.Path(path).read_bytes()
    _require(raw, 0, _HEADER.size, "header")
    magic, version, line_size, threads, name_len = _HEADER.unpack_from(raw, 0)
    if magic != _MAGIC:
        raise ValueError(f"not a DWTR trace file: bad magic {magic!r}")
    if version != _VERSION:
        raise ValueError(f"unsupported trace version {version}")
    offset = _HEADER.size
    _require(raw, offset, name_len, "trace name")
    name = raw[offset : offset + name_len].decode("utf-8")
    offset += name_len
    _require(raw, offset, _COUNT.size, "access count")
    (count,) = _COUNT.unpack_from(raw, offset)
    offset += _COUNT.size
    _require(raw, offset, count * _RECORD.size, f"{count} access records")
    records = list(_RECORD.iter_unpack(raw[offset : offset + count * _RECORD.size]))
    offset += count * _RECORD.size
    writes = sum(1 for record in records if record[1] & _FLAG_WRITE)
    _require(raw, offset, writes * line_size, f"{writes} write payloads")
    if offset + writes * line_size != len(raw):
        raise ValueError(
            f"trailing bytes in trace file: {len(raw) - offset - writes * line_size} "
            f"after byte {offset + writes * line_size}"
        )

    builder = BatchBuilder(line_size=line_size)
    for core, flags, address, gap in records:
        if flags & _FLAG_WRITE:
            builder.append_write(
                core,
                address,
                raw[offset : offset + line_size],
                gap_instructions=gap,
                persistent=bool(flags & _FLAG_PERSISTENT),
            )
            offset += line_size
        else:
            builder.append_read(core, address, gap_instructions=gap)
    return Trace.from_batch(name, builder.build(), threads=threads)
