"""Columnar access batches — the hot-path representation of a trace.

The scalar pipeline hands one :class:`~repro.workloads.trace.MemoryAccess`
object per request to the controller; at millions of simulated accesses the
object churn (allocation, attribute lookups, per-access validation)
dominates the run.  :class:`AccessBatch` stores the same stream as parallel
``array``/``bytes`` columns so the simulator, the controllers' batched
kernels and the analysis tools can iterate integers instead of objects.

Layout (all columns are parallel, indexed by access position):

- ``ops`` — one byte per access, ``OP_READ`` (0) or ``OP_WRITE`` (1);
- ``cores`` — issuing core id (``array('i')``);
- ``addresses`` — line index (``array('q')``);
- ``gaps`` — instruction gap before the access (``array('q')``);
- ``persistent`` — one byte per access, 1 when the write is ordered by a
  flush+fence (meaningless for reads, always 0 there);
- ``payload`` — the concatenation of every write's line data, in access
  order;
- ``slots`` — byte offset of access *i*'s line inside ``payload``
  (``-1`` for reads).

Every write in a batch carries the same line size (the device's), so a
write's data is ``payload[slots[i] : slots[i] + line_size]``.  Batches are
immutable once built; build them with :class:`BatchBuilder` or via
:meth:`AccessBatch.from_accesses` / :meth:`Trace.as_batch
<repro.workloads.trace.Trace.as_batch>`.

Fingerprint columns are computed lazily and cached per scheme (see
:meth:`AccessBatch.fingerprints`).  Generated traces are memoized per
process (:func:`repro.runner.jobs.trace_for`), so every job of one process
that replays the same trace shares its batch and its fingerprint cache:
the dedup controllers hash each line once per process, not once per job.
"""

from __future__ import annotations

import hashlib
import zlib
from array import array
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (trace imports us)
    from repro.workloads.trace import MemoryAccess

OP_READ = 0
OP_WRITE = 1


class AccessBatch:
    """An immutable columnar view of an ordered memory-access stream."""

    __slots__ = (
        "ops",
        "cores",
        "addresses",
        "gaps",
        "persistent",
        "payload",
        "slots",
        "line_size",
        "_fingerprint_cache",
    )

    def __init__(
        self,
        ops: bytes,
        cores: array,
        addresses: array,
        gaps: array,
        persistent: bytes,
        payload: bytes,
        slots: array,
        line_size: int,
    ) -> None:
        n = len(ops)
        if not (len(cores) == len(addresses) == len(gaps) == len(persistent) == len(slots) == n):
            raise ValueError("batch columns must be parallel (equal length)")
        self.ops = ops
        self.cores = cores
        self.addresses = addresses
        self.gaps = gaps
        self.persistent = persistent
        self.payload = payload
        self.slots = slots
        self.line_size = line_size
        self._fingerprint_cache: dict[str, list[int | bytes | None]] = {}

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def write_count(self) -> int:
        """Number of write accesses in the batch."""
        return self.ops.count(OP_WRITE)

    def write_pairs(self) -> Iterator[tuple[int, bytes]]:
        """Yield (address, data) for every write, in access order."""
        payload = self.payload
        line = self.line_size
        addresses = self.addresses
        for index, slot in enumerate(self.slots):
            if slot >= 0:
                yield addresses[index], payload[slot : slot + line]

    def fingerprints(self, scheme: str) -> list[int | bytes | None]:
        """Per-access fingerprint column for ``scheme`` (None at reads).

        ``"crc32"`` yields ints (the hardware CRC circuit's output); any
        other scheme name is treated as a :mod:`hashlib` algorithm and
        yields digests.  The column is computed once per scheme and cached
        on the batch, so several controllers replaying the same batch share
        the work — across jobs, too, when the batch belongs to a memoized
        trace.
        """
        cached = self._fingerprint_cache.get(scheme)
        if cached is not None:
            return cached
        column: list[int | bytes | None] = [None] * len(self.ops)
        view = memoryview(self.payload)
        line = self.line_size
        if scheme == "crc32":
            crc = zlib.crc32
            for index, slot in enumerate(self.slots):
                if slot >= 0:
                    column[index] = crc(view[slot : slot + line])
        else:
            new = hashlib.new
            for index, slot in enumerate(self.slots):
                if slot >= 0:
                    column[index] = new(scheme, view[slot : slot + line]).digest()
        self._fingerprint_cache[scheme] = column
        return column

    @classmethod
    def from_accesses(cls, accesses: list[MemoryAccess], line_size: int | None = None) -> AccessBatch:
        """Build a batch from scalar :class:`MemoryAccess` objects."""
        builder = BatchBuilder(line_size=line_size)
        for access in accesses:
            if access.op == "write":
                builder.append_write(
                    access.core,
                    access.address,
                    access.data,  # type: ignore[arg-type]
                    gap_instructions=access.gap_instructions,
                    persistent=access.persistent,
                )
            else:
                builder.append_read(
                    access.core, access.address, gap_instructions=access.gap_instructions
                )
        return builder.build()

    def to_accesses(self) -> list[MemoryAccess]:
        """Materialise scalar :class:`MemoryAccess` objects (compat path)."""
        from repro.workloads.trace import MemoryAccess

        payload = self.payload
        line = self.line_size
        out: list[MemoryAccess] = []
        for index, op in enumerate(self.ops):
            if op == OP_WRITE:
                slot = self.slots[index]
                out.append(
                    MemoryAccess(
                        core=self.cores[index],
                        op="write",
                        address=self.addresses[index],
                        data=payload[slot : slot + line],
                        gap_instructions=self.gaps[index],
                        persistent=bool(self.persistent[index]),
                    )
                )
            else:
                out.append(
                    MemoryAccess(
                        core=self.cores[index],
                        op="read",
                        address=self.addresses[index],
                        gap_instructions=self.gaps[index],
                    )
                )
        return out


class BatchBuilder:
    """Append-only builder producing an :class:`AccessBatch`.

    The columns are public: the trace synthesizers append to them straight
    from their draw loops (one access = one entry in each of ``ops``,
    ``cores``, ``addresses``, ``gaps``, ``persistent`` and ``slots``, plus
    exactly ``line_size`` bytes of ``payload`` per write), and every other
    caller goes through :meth:`append_read` / :meth:`append_write`, which
    validate each access.  :meth:`build` checks the columns are parallel
    and the payload holds one line per write.
    """

    def __init__(self, line_size: int | None = None) -> None:
        self.ops = bytearray()
        self.cores = array("i")
        self.addresses = array("q")
        self.gaps = array("q")
        self.persistent = bytearray()
        self.payload = bytearray()
        self.slots = array("q")
        self.line_size = line_size

    def __len__(self) -> int:
        return len(self.ops)

    def append_read(self, core: int, address: int, gap_instructions: int = 0) -> None:
        """Append one read access."""
        if gap_instructions < 0:
            raise ValueError("gap_instructions must be non-negative")
        self.ops.append(OP_READ)
        self.cores.append(core)
        self.addresses.append(address)
        self.gaps.append(gap_instructions)
        self.persistent.append(0)
        self.slots.append(-1)

    def append_write(
        self,
        core: int,
        address: int,
        data: bytes,
        gap_instructions: int = 0,
        persistent: bool = False,
    ) -> None:
        """Append one write access carrying ``data``."""
        if gap_instructions < 0:
            raise ValueError("gap_instructions must be non-negative")
        if self.line_size is None:
            self.line_size = len(data)
        elif len(data) != self.line_size:
            raise ValueError(
                f"write data must be {self.line_size} bytes, got {len(data)}"
            )
        self.ops.append(OP_WRITE)
        self.cores.append(core)
        self.addresses.append(address)
        self.gaps.append(gap_instructions)
        self.persistent.append(1 if persistent else 0)
        self.slots.append(len(self.payload))
        self.payload.extend(data)

    def build(self) -> AccessBatch:
        """Freeze the columns into an immutable :class:`AccessBatch`.

        The batch gets copies of the columns, so appending after a build
        never reaches a batch already handed out.
        """
        line_size = self.line_size if self.line_size is not None else 0
        if len(self.payload) != self.ops.count(OP_WRITE) * line_size:
            raise ValueError(
                f"payload holds {len(self.payload)} bytes, not one "
                f"{line_size}-byte line per write"
            )
        return AccessBatch(
            ops=bytes(self.ops),
            cores=self.cores[:],
            addresses=self.addresses[:],
            gaps=self.gaps[:],
            persistent=bytes(self.persistent),
            payload=bytes(self.payload),
            slots=self.slots[:],
            line_size=line_size,
        )
