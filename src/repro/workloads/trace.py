"""Memory-trace datatypes shared by the generator, simulator and analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
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


@dataclass
class Trace:
    """An ordered memory-access stream plus its provenance."""

    name: str
    accesses: list[MemoryAccess] = field(default_factory=list)
    threads: int = 1

    def __len__(self) -> int:
        return len(self.accesses)

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
        Traces built by the generators carry their batch from birth; traces
        assembled access-by-access convert (and cache) on first use.
        """
        cached = getattr(self, "_batch_cache", None)
        if cached is None:
            cached = AccessBatch.from_accesses(self.accesses)
            self._batch_cache = cached
        return cached

    @classmethod
    def from_batch(cls, name: str, batch: AccessBatch, threads: int = 1) -> "Trace":
        """Build a trace whose native representation is ``batch``.

        The scalar ``accesses`` list is materialised once for the legacy
        object API; ``as_batch()`` returns the original batch without a
        conversion pass.
        """
        trace = cls(name=name, accesses=batch.to_accesses(), threads=threads)
        trace._batch_cache = batch
        return trace

    @property
    def total_instructions(self) -> int:
        """Instructions executed across all accesses (for IPC)."""
        return sum(a.gap_instructions for a in self.accesses)
