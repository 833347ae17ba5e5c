"""Memory-trace datatypes shared by the generator, simulator and analyses."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.workloads.batch import AccessBatch


@dataclass(frozen=True)
class MemoryAccess:
    """One post-LLC memory request.

    Attributes:
        core: issuing core (0-based).
        op: ``"read"`` or ``"write"``.
        address: line index.
        data: line contents for writes; None for reads.
        gap_instructions: instructions the core executes between its
            previous access and this one (compute time).
        persistent: for writes — whether the store is ordered by a cache
            flush + fence, stalling the core until it completes (§III's
            persistent-memory write model).  Non-persistent writes are LLC
            writebacks, posted to the bank without stalling.
    """

    core: int
    op: str
    address: int
    data: bytes | None = None
    gap_instructions: int = 0
    persistent: bool = False

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"op must be 'read' or 'write', got {self.op!r}")
        if self.op == "write" and self.data is None:
            raise ValueError("writes must carry line data")
        if self.op == "read" and self.data is not None:
            raise ValueError("reads must not carry data")
        if self.gap_instructions < 0:
            raise ValueError("gap_instructions must be non-negative")


class Trace:
    """An ordered memory-access stream plus its provenance.

    A trace is native in one of two forms and derives the other on first
    use: hand-built traces hold the scalar ``accesses`` list and convert
    to a batch in :meth:`as_batch`; generated and loaded traces hold an
    :class:`AccessBatch` (see :meth:`from_batch`) and build ``accesses``
    only if something asks for it.  Equality, ``len()`` and iteration
    behave the same for both.
    """

    def __init__(
        self, name: str, accesses: list[MemoryAccess] | None = None, threads: int = 1
    ) -> None:
        self.name = name
        self.threads = threads
        self._accesses: list[MemoryAccess] | None = [] if accesses is None else accesses
        self._batch: AccessBatch | None = None

    @property
    def accesses(self) -> list[MemoryAccess]:
        """Scalar ``MemoryAccess`` objects, in order (built from the batch
        on first use for batch-native traces)."""
        if self._accesses is None:
            self._accesses = self.as_batch().to_accesses()
        return self._accesses

    def __repr__(self) -> str:
        return f"Trace(name={self.name!r}, accesses=<{len(self)}>, threads={self.threads})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name, self.accesses, self.threads) == (
            other.name,
            other.accesses,
            other.threads,
        )

    def __len__(self) -> int:
        if self._accesses is None:
            return len(self.as_batch())
        return len(self._accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    @property
    def writes(self) -> list[MemoryAccess]:
        """Write accesses only, in order."""
        return [a for a in self.accesses if a.op == "write"]

    @property
    def reads(self) -> list[MemoryAccess]:
        """Read accesses only, in order."""
        return [a for a in self.accesses if a.op == "read"]

    def as_batch(self) -> AccessBatch:
        """Columnar view of this trace (cached after the first call).

        The batch is the hot-path representation: the simulator, the
        controllers' batched kernels and the analysis tools all consume it.
        Traces built by the generators and by ``load_trace`` carry their
        batch from birth; traces assembled access-by-access convert (and
        cache) on first use.
        """
        if self._batch is None:
            self._batch = AccessBatch.from_accesses(self.accesses)
        return self._batch

    @classmethod
    def from_batch(cls, name: str, batch: AccessBatch, threads: int = 1) -> "Trace":
        """Build a trace whose native representation is ``batch``.

        ``as_batch()`` returns ``batch`` itself; the scalar ``accesses``
        list is materialised only when something reads it.
        """
        trace = cls(name=name, threads=threads)
        trace._accesses = None
        trace._batch = batch
        return trace

    @property
    def total_instructions(self) -> int:
        """Instructions executed across all accesses (for IPC)."""
        if self._accesses is None:
            return sum(self.as_batch().gaps)
        return sum(a.gap_instructions for a in self._accesses)
