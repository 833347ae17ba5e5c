"""Batch servicing state shared by the simulator and the controllers.

The batched contract is: the *simulator* owns trace splitting and the CPU
stall model parameters, a :class:`BatchCursor` carries the replay state
(per-core position and local time, cycle accumulators) across
``service_batch`` calls, and the *controller* owns the issue loop so it can
fuse crypto/hash/dedup work across the requests of one batch.

Correctness bar (tested property): driving a cursor through any
controller's ``service_batch`` — one stream or a merge of several —
produces the same floating-point state evolution as the scalar
:meth:`SystemSimulator.run <repro.system.simulator.SystemSimulator>` loop,
request for request, so reports are byte-identical.

The cursor replays requests in *global arrival order* via the same
``min(active, key=next_arrival)`` merge as the scalar loop (including its
tie-breaking, which follows the set's iteration order), because bank
occupancy makes request order causally significant.
"""

from __future__ import annotations

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
