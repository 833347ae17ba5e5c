"""Common interface of all memory controllers (DeWrite and baselines).

Every controller in this repository — DeWrite, the traditional secure NVM,
the direct/parallel integration modes, traditional SHA-1 dedup, Silent
Shredder — services the same two requests against the same
:class:`repro.nvm.NvmMainMemory` device, so the system simulator and all
experiments are controller-agnostic.

Each controller has one request pipeline: its kernel
:meth:`MemoryController._service_stream`, which merges the cursor's
per-core streams in arrival order and feeds every attached observer.
Everything else is defined once, here:

- :meth:`~MemoryController.service_batch` is the hot path.  The simulator
  hands it an :class:`~repro.workloads.batch.AccessBatch` plus a
  :class:`~repro.core.batching.BatchCursor`, and it makes one kernel call
  whatever the stream count.
- :meth:`~MemoryController.write` / :meth:`~MemoryController.read` run one
  request through the kernel on a reusable one-row batch.
"""

from __future__ import annotations

import abc
from array import array
from typing import NamedTuple

from repro.core.batching import BatchCursor, BatchOutcome
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.stages import NULL_STAGES, StagesLike
from repro.obs.timeline import NULL_TIMELINE, TimelineLike
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.workloads.batch import OP_READ, OP_WRITE, AccessBatch


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
        # The one-row batch and cursor write()/read() stage each request
        # in, and the completion time of the last request a kernel serviced.
        self._request = AccessBatch(
            bytearray(1), array("i", [0]), array("q", [0]), array("q", [0]),
            b"\x01", b"", array("q", [0]), self.line_size,
        )
        self._request_cursor = BatchCursor(
            self._request,
            ns_per_instruction=1.0,
            read_stall_exposure=1.0,
            clock_ghz=1.0,
            base_cpi=1.0,
        )
        self._complete_ns = 0.0
        #: Per-request record: while a consumer attaches a list, the kernel
        #: appends one row per serviced request in issue order, ``(req,
        #: complete_ns)`` for a read and ``(req, complete_ns, *facts)`` for
        #: a write, the facts being the written state the family's crash
        #: journal needs.  The consumer drains it after every kernel call.
        self.request_record: list[tuple] | None = None

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

        Observers never change the path a request takes: every kernel
        feeds a *tracer* or *timeline* per request itself, and a *stages*
        accumulator alone (**summary mode**) with columnar per-batch
        flushes.
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

    # -- one-request interface ---------------------------------------------------

    def write(self, address: int, data: bytes, arrival_ns: float) -> WriteOutcome:
        """Service one line write as a one-request batch through the kernel."""
        if len(data) != self.line_size:
            # The kernel slices the payload to one line: check the caller's bytes.
            self._check_line(data)
        batch = self._request
        batch.ops[0] = OP_WRITE
        batch.addresses[0] = address
        batch.payload = data
        latency_ns, deduplicated = self._service_request(arrival_ns)
        return WriteOutcome(
            latency_ns=latency_ns,
            deduplicated=deduplicated == 1,
            complete_ns=self._complete_ns,
        )

    def read(self, address: int, arrival_ns: float) -> ReadOutcome:
        """Service one line read as a one-request batch through the kernel."""
        batch = self._request
        batch.ops[0] = OP_READ
        batch.addresses[0] = address
        latency_ns, _ = self._service_request(arrival_ns)
        return ReadOutcome(
            latency_ns=latency_ns,
            data=self._plaintext(address),
            complete_ns=self._complete_ns,
        )

    def _service_request(self, arrival_ns: float) -> tuple[float, int]:
        """Run the staged one-row batch through this class's kernel.

        The row has gap 0 and is persistent, and the cursor's exposure and
        clock are 1.0, so the request arrives at ``arrival_ns`` and its
        ``stall_cycles`` equal its latency exactly.  Returns that latency
        and the number of writes the kernel eliminated (0 or 1).
        """
        cursor = self._request_cursor
        cursor.positions[0] = 0
        cursor.core_time[0] = arrival_ns
        cursor.active.add(0)
        cursor.stall_cycles = 0.0
        deduplicated = self._service_stream(self._request, cursor)[3]
        return cursor.stall_cycles / cursor.clock_ghz, deduplicated

    def _plaintext(self, address: int) -> bytes:
        """The plaintext line ``address`` holds now (functional, untimed);
        :meth:`read` rebuilds its data through it."""
        raise NotImplementedError(f"{type(self).__name__} cannot rebuild plaintext")

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
        accumulators advance exactly as that loop advances them.

        The kernel does all of it in one call.  A call on more than one
        active stream (a batch the kernel merged) is counted in
        ``batch.fallback.multi_stream``.
        """
        active = cursor.active
        if not active:
            return BatchOutcome(0, 0, 0, 0)
        if len(active) > 1:
            registry().counter("batch.fallback.multi_stream").inc()
        return BatchOutcome(*self._service_stream(batch, cursor, max_requests))

    @abc.abstractmethod
    def _service_stream(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> tuple[int, int, int, int]:
        """The controller's pipeline over the cursor's active streams.

        Services up to ``max_requests`` requests in the merge order of
        :func:`~repro.core.batching.merge_state` (one stream runs until
        its next arrival passes the runner-up's), advances the cursor as
        the scalar simulator loop would, sets ``_complete_ns`` to the last
        serviced request's completion time and returns the ``(serviced,
        reads, writes, deduplicated)`` counts.  With a
        :attr:`request_record` attached it also appends one row per
        serviced request.
        """

    # -- helpers ----------------------------------------------------------------

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes, got {len(data)}")
