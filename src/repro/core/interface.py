"""Common interface of all memory controllers (DeWrite and baselines).

Every controller in this repository — DeWrite, the traditional secure NVM,
the direct/parallel integration modes, traditional SHA-1 dedup, Silent
Shredder — services the same two requests against the same
:class:`repro.nvm.NvmMainMemory` device, so the system simulator and all
experiments are controller-agnostic.

Controllers are addressed either one request at a time (:meth:`write` /
:meth:`read`) or a batch at a time (:meth:`service_batch`), the latter being
the hot path: the simulator hands the controller an
:class:`~repro.workloads.batch.AccessBatch` plus a
:class:`~repro.core.batching.BatchCursor` and the controller owns the issue
loop, which lets subclasses fuse crypto/hash/dedup work across requests.
The default implementation drives ``write``/``read``, so every controller
is batch-addressable without opting in; it also merges multi-stream
cursors for the fused kernels, which service one stream at a time.

The CME family (:mod:`repro.baselines`) has one pipeline per controller:
its single-stream kernel behind ``service_batch``, which also feeds every
observer; its ``write``/``read`` run one request through that kernel.
DeWrite still keeps a scalar ``write``/``read`` beside its kernel.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, NamedTuple

from repro.core.batching import BatchCursor, BatchOutcome
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.stages import NULL_STAGES, StagesLike
from repro.obs.timeline import NULL_TIMELINE, TimelineLike
from repro.obs.trace import NULL_TRACER, TracerLike

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.workloads.batch import AccessBatch


class WriteOutcome(NamedTuple):
    """Result of one line-write request as the CPU observes it.

    ``latency_ns`` is arrival-to-persistence: in persistent memory the core
    stalls until the write (or its elimination) completes (§I/§III).

    A NamedTuple rather than a dataclass: one is allocated per request on
    the hot path, and tuple allocation is several times cheaper.
    """

    latency_ns: float
    deduplicated: bool
    complete_ns: float


class ReadOutcome(NamedTuple):
    """Result of one line-read request."""

    latency_ns: float
    data: bytes
    complete_ns: float


class MemoryController(abc.ABC):
    """A secure-NVM memory controller servicing 256 B line requests."""

    def __init__(self, nvm: NvmMainMemory) -> None:
        self.nvm = nvm
        self.line_size = nvm.config.organization.line_size_bytes
        self.tracer: TracerLike = NULL_TRACER
        self.timeline: TimelineLike = NULL_TIMELINE
        self.stages: StagesLike = NULL_STAGES

    # -- observability ----------------------------------------------------------

    def attach_observers(
        self,
        tracer: TracerLike | None = None,
        timeline: TimelineLike | None = None,
        stages: StagesLike | None = None,
    ) -> None:
        """Route this controller's (and its device's) observability streams.

        Any argument may be omitted to leave that stream unchanged.  The
        defaults are the shared no-op :data:`~repro.obs.trace.NULL_TRACER` /
        :data:`~repro.obs.timeline.NULL_TIMELINE` /
        :data:`~repro.obs.stages.NULL_STAGES`, so instrumented paths cost
        one ``enabled`` check until a real observer is attached.
        Subclasses with instrumented internals override
        :meth:`_propagate_observers` to forward the observers to them.

        Observability modes and the batch path: the CME-family kernels
        feed a *tracer* or *timeline* per request themselves, so attaching
        one never changes their path.  On DeWrite a tracer or timeline
        forces the fused kernel back onto the scalar loop (counted in
        ``batch.fallback.*``).  Attaching only a *stages* accumulator is
        **summary mode** — every fused kernel feeds it with columnar
        per-batch flushes and stays fused.
        """
        if tracer is not None:
            self.tracer = tracer
            self.nvm.tracer = tracer
        if timeline is not None:
            self.timeline = timeline
            self.nvm.timeline = timeline
        if stages is not None:
            self.stages = stages
        self._propagate_observers(self.tracer, self.timeline)

    def _propagate_observers(self, tracer: TracerLike, timeline: TimelineLike) -> None:
        """Hook for subclasses to hand the observers to internal components."""

    # -- scalar request interface ----------------------------------------------

    @abc.abstractmethod
    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Service a line write arriving at ``arrival_ns``."""

    @abc.abstractmethod
    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Service a line read arriving at ``arrival_ns``."""

    # -- batched request interface ---------------------------------------------

    def service_batch(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> BatchOutcome:
        """Service up to ``max_requests`` accesses of ``batch`` through ``cursor``.

        Requests are issued in global arrival order (the per-core streams
        are merged by next arrival time, ties broken as the scalar
        simulator loop breaks them), and the cursor's clocks and cycle
        accumulators advance exactly as that loop advances them — this
        equivalence is the contract subclassed kernels must preserve and
        the property suite enforces.

        The base implementation simply drives :meth:`write` / :meth:`read`
        one request at a time; fused kernels hand it the cursors they do
        not service themselves (more than one active stream, or DeWrite's
        observed and overridden cases) and it counts each such hand-off
        in ``batch.fallback.*``.
        """
        if cursor.active and type(self).service_batch is not MemoryController.service_batch:
            # A fused kernel bailed out to this scalar-driving loop.  The
            # fallback is correct but silent; count why it happened so
            # `repro stats` and the overhead gate can see it.
            if self.tracer.enabled:
                reason = "tracer"
            elif self.timeline.enabled:
                reason = "timeline"
            elif len(cursor.active) > 1:
                reason = "multi_stream"
            else:
                reason = "overridden_scalar"
            registry().counter(f"batch.fallback.{reason}").inc()
        ops = batch.ops
        addresses = batch.addresses
        gaps = batch.gaps
        persistent = batch.persistent
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        streams = cursor.streams
        positions = cursor.positions
        core_time = cursor.core_time
        active = cursor.active
        npi = cursor.ns_per_instruction
        exposure = cursor.read_stall_exposure
        clock = cursor.clock_ghz
        base_cpi = cursor.base_cpi
        write = self.write
        read = self.read

        instructions = cursor.instructions
        stall_cycles = cursor.stall_cycles
        compute_cycles = cursor.compute_cycles
        issued = reads = writes = deduplicated = 0

        def next_arrival(core: int) -> float:
            return core_time[core] + gaps[streams[core][positions[core]]] * npi

        while active and issued != max_requests:
            if len(active) == 1:
                # Single-stream fast path: with one active core there is
                # nothing to merge, so the per-iteration min()/dict traffic
                # collapses to sequential replay over plain locals.  Every
                # arithmetic operation matches the general path exactly.
                core = next(iter(active))
                stream = streams[core]
                position = positions[core]
                length = len(stream)
                now = core_time[core]
                while position < length and issued != max_requests:
                    index = stream[position]
                    gap = gaps[index]
                    arrival = now + gap * npi
                    instructions += gap
                    compute_cycles += gap * base_cpi
                    if ops[index]:
                        slot = slots[index]
                        outcome = write(
                            addresses[index], payload[slot : slot + line_size], arrival
                        )
                        writes += 1
                        if outcome.deduplicated:
                            deduplicated += 1
                        if persistent[index]:
                            now = outcome.complete_ns
                            stall_cycles += outcome.latency_ns * clock
                        else:
                            now = arrival
                    else:
                        outcome = read(addresses[index], arrival)
                        exposed = outcome.latency_ns * exposure
                        now = arrival + exposed
                        stall_cycles += exposed * clock
                        reads += 1
                    issued += 1
                    position += 1
                positions[core] = position
                core_time[core] = now
                if position >= length:
                    active.discard(core)
                continue
            core = min(active, key=next_arrival)
            stream = streams[core]
            position = positions[core]
            index = stream[position]
            gap = gaps[index]
            arrival = core_time[core] + gap * npi
            instructions += gap
            compute_cycles += gap * base_cpi
            if ops[index]:
                slot = slots[index]
                outcome = write(addresses[index], payload[slot : slot + line_size], arrival)
                writes += 1
                if outcome.deduplicated:
                    deduplicated += 1
                if persistent[index]:
                    core_time[core] = outcome.complete_ns
                    stall_cycles += outcome.latency_ns * clock
                else:
                    core_time[core] = arrival
            else:
                outcome = read(addresses[index], arrival)
                exposed = outcome.latency_ns * exposure
                core_time[core] = arrival + exposed
                stall_cycles += exposed * clock
                reads += 1
            issued += 1
            position += 1
            positions[core] = position
            if position >= len(stream):
                active.discard(core)

        cursor.instructions = instructions
        cursor.stall_cycles = stall_cycles
        cursor.compute_cycles = compute_cycles
        return BatchOutcome(issued, reads, writes, deduplicated)

    # -- helpers ----------------------------------------------------------------

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes, got {len(data)}")
