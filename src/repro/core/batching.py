"""Batch servicing state shared by the simulator and the controllers.

The batched contract is: the *simulator* owns trace splitting and the CPU
stall model parameters, a :class:`BatchCursor` carries the replay state
(per-core position and local time, cycle accumulators) across
``service_batch`` calls, and the *controller* owns the issue loop: one
kernel, :meth:`MemoryController._service_stream
<repro.core.interface.MemoryController._service_stream>`, for every family.

Correctness bar (tested property): driving a cursor through any
controller's ``service_batch`` — one stream or a merge of several —
produces the same floating-point state evolution as the scalar
:meth:`SystemSimulator.run <repro.system.simulator.SystemSimulator>` loop,
request for request, so reports are byte-identical.

The cursor replays requests in *global arrival order*, because bank
occupancy makes request order causally significant.  The kernel merges the
cursor's streams itself from :func:`merge_state`: it runs the earliest
stream until that stream's next arrival passes the runner-up's, which
issues requests exactly as the scalar loop's ``min(active,
key=next_arrival)`` does, tie-break included.  A ``service_batch`` call
on more than one active stream (a batch the kernel merged) is counted in
``batch.fallback.multi_stream``.
"""

from __future__ import annotations

from heapq import heapify, heappop
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.batch import AccessBatch


class BatchOutcome(NamedTuple):
    """What one ``service_batch`` call issued."""

    serviced: int
    reads: int
    writes: int
    deduplicated: int


class BatchCursor:
    """Replay state of one batch across ``service_batch`` calls.

    Mirrors the scalar simulator loop's locals exactly: per-core index
    streams (trace order), per-core positions and local clocks, and the
    instruction/cycle accumulators the report is built from.
    """

    __slots__ = (
        "batch",
        "streams",
        "positions",
        "core_time",
        "active",
        "instructions",
        "stall_cycles",
        "compute_cycles",
        "ns_per_instruction",
        "read_stall_exposure",
        "clock_ghz",
        "base_cpi",
    )

    def __init__(
        self,
        batch: AccessBatch,
        *,
        ns_per_instruction: float,
        read_stall_exposure: float,
        clock_ghz: float,
        base_cpi: float,
    ) -> None:
        # Same construction as the scalar loop: per-core streams in trace
        # order, then the active set — the set's element history determines
        # min()'s tie-breaking, so it must be built identically.
        streams: dict[int, list[int]] = {}
        cores = batch.cores
        for index in range(len(batch)):
            core = cores[index]
            stream = streams.get(core)
            if stream is None:
                streams[core] = stream = []
            stream.append(index)
        self.batch = batch
        self.streams = streams
        self.positions = {core: 0 for core in streams}
        self.core_time = {core: 0.0 for core in streams}
        self.active = {core for core, stream in streams.items() if stream}
        self.instructions = 0
        self.stall_cycles = 0.0
        self.compute_cycles = 0.0
        self.ns_per_instruction = ns_per_instruction
        self.read_stall_exposure = read_stall_exposure
        self.clock_ghz = clock_ghz
        self.base_cpi = base_cpi

    @property
    def done(self) -> bool:
        """Whether every access of the batch has been serviced."""
        return not self.active

    @property
    def serviced(self) -> int:
        """Accesses issued so far."""
        return sum(self.positions.values())

    def makespan_ns(self) -> float:
        """Latest per-core local time (the run's makespan once done)."""
        return max(self.core_time.values(), default=0.0)


INF = float("inf")
# The runner-up of the last stream left: no arrival passes it.
NO_LIMIT = (INF, 0, -1)


def merge_state(cursor: BatchCursor) -> tuple[list | None, int, int, float, int]:
    """The k-stream merge state of a cursor with at least one active stream.

    Returns ``(heap, rank, core, limit, limit_rank)``: ``core`` (of
    ``rank``) is the stream that issues next, ``(limit, limit_rank)`` is
    its runner-up, and ``heap`` is a heapified list of ``(next_arrival,
    rank, core)`` of the other active streams.  A kernel runs ``core``
    until its next arrival passes the runner-up (``arrival > limit or
    (arrival == limit and rank > limit_rank)``), pushes it back and pops
    the next one.

    ``rank`` is the core's position in ``cursor.active``'s iteration
    order, which is the scalar loop's ``min()`` tie-break; discards never
    reorder a set, so ranks built afresh at each call are exact.  A lone
    stream builds no heap (``heap`` is ``None``) and its limit is
    ``+inf``, so a single-stream call pays one float compare per request;
    the kernel builds that lone state inline, so a one-request call pays
    no call here either.
    """
    active = cursor.active
    if len(active) == 1:
        (core,) = active
        return None, 0, core, INF, 0
    streams = cursor.streams
    positions = cursor.positions
    core_time = cursor.core_time
    gaps = cursor.batch.gaps
    npi = cursor.ns_per_instruction
    # A plain loop: a comprehension here would turn these locals into
    # closure cells, built on every call, the lone-stream ones included.
    heap = []
    for rank, core in enumerate(active):
        heap.append(
            (core_time[core] + gaps[streams[core][positions[core]]] * npi, rank, core)
        )
    heapify(heap)
    _, rank, core = heappop(heap)
    limit, limit_rank, _ = heap[0]
    return heap, rank, core, limit, limit_rank
