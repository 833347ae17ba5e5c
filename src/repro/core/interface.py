"""Common interface of all memory controllers (DeWrite and baselines).

Every controller in this repository — DeWrite, the traditional secure NVM,
the direct/parallel integration modes, traditional SHA-1 dedup, Silent
Shredder, i-NVMM — services the same two requests against the same
:class:`repro.nvm.NvmMainMemory` device, through one kernel defined here,
:meth:`MemoryController._service_stream`.  The kernel merges the cursor's
per-core streams in arrival order and times every request; a family
supplies only its write and read bodies and a finish step
(:meth:`MemoryController._request_bodies`).

- :meth:`~MemoryController.service_batch` is the hot path.  The simulator
  hands it an :class:`~repro.workloads.batch.AccessBatch` plus a
  :class:`~repro.core.batching.BatchCursor`, and it makes one kernel call
  whatever the stream count.
- :meth:`~MemoryController.write` / :meth:`~MemoryController.read` run one
  request through the kernel on a reusable one-row batch.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from heapq import heappop, heappush
from typing import Callable, NamedTuple

from repro.core.batching import INF, NO_LIMIT, BatchCursor, BatchOutcome, merge_state
from repro.core.stats import DeWriteStats
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


#: A write or read body: ``(req, address, arrival_ns)`` -> completion time.
RequestBody = Callable[[int, int, float], float]

#: One kernel call's stage samples: stage name -> samples in request order.
StageColumns = defaultdict[str, list[float]]


class MemoryController:
    """A secure-NVM memory controller servicing 256 B line requests."""

    #: Request counters and latencies; the kernel keeps the latencies.
    stats: DeWriteStats
    #: Lines of the data region; a request outside it is an IndexError.
    data_lines: int

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
        Subclasses with instrumented internals, and wrappers around
        another controller, override :meth:`_propagate_observers` to
        forward all three observers to them.

        Observers never change the path a request takes: every body makes
        the same device, metadata and counter-cache calls whatever is
        attached, and only feeds what is enabled: a *tracer* or
        *timeline* per request (a span's bank wait is read off the
        device's ``last_start_ns``; a metadata hit arm records its own
        touch), a *stages* accumulator (**summary mode**) with columnar
        per-batch flushes.
        """
        if tracer is not None:
            self.tracer = tracer
            self.nvm.tracer = tracer
        if timeline is not None:
            self.timeline = timeline
            self.nvm.timeline = timeline
        if stages is not None:
            self.stages = stages
        self._propagate_observers(self.tracer, self.timeline, self.stages)

    def _propagate_observers(
        self, tracer: TracerLike, timeline: TimelineLike, stages: StagesLike
    ) -> None:
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

        One kernel call issues them in global arrival order, ties broken
        as the scalar simulator loop breaks them (see
        :meth:`_service_stream`).  A call on more than one active stream
        is counted in ``batch.fallback.multi_stream``.
        """
        active = cursor.active
        if not active:
            return BatchOutcome(0, 0, 0, 0)
        if len(active) > 1:
            registry().counter("batch.fallback.multi_stream").inc()
        return BatchOutcome(*self._service_stream(batch, cursor, max_requests))

    def _request_bodies(
        self, batch: AccessBatch, columns: StageColumns
    ) -> tuple[RequestBody, RequestBody, Callable[[], None]]:
        """The family's ``(write, read, finish)`` for one kernel call on ``batch``.

        A body services row ``req`` of ``batch`` for line ``address``,
        arriving at ``arrival_ns``, and returns its completion time.  It
        runs the family's pipeline, counts and spans; a write body also
        records the write on the timeline and appends its
        :attr:`request_record` row.  While a stage accumulator is attached,
        a body appends its sub-stage samples to ``columns[stage]``, the
        call's one list per stage name, in request order; a subclass that
        wraps its parent's bodies appends to the same lists.  ``finish()``
        runs after the call's last request and writes the family's
        counters back; the kernel then flushes every column.
        """
        raise NotImplementedError(f"{type(self).__name__} has no request bodies")

    def _service_stream(
        self,
        batch: AccessBatch,
        cursor: BatchCursor,
        max_requests: int | None = None,
    ) -> tuple[int, int, int, int]:
        """The one pipeline: up to ``max_requests`` requests of the cursor's streams.

        Requests issue in the merge order of
        :func:`~repro.core.batching.merge_state` (one stream runs until its
        next arrival passes the runner-up's), each through the family's
        write or read body.  Around the body the kernel advances the cursor
        as the scalar simulator loop would, accumulates the latency, and
        for a read records it on the timeline and appends its ``(req,
        complete_ns)`` :attr:`request_record` row.  Floats add up in
        request order and counters are written back once per call, so
        reports are byte-identical however a trace is sliced.  The call's
        stage columns, the bodies' and the kernel's ``write``/``read``
        samples, go to the stage accumulator in one
        :meth:`~repro.obs.stages.StageAccumulator.record_many` each.  Sets
        ``_complete_ns`` to the last request's completion and returns the
        ``(serviced, reads, writes, deduplicated)`` counts, the last being
        the call's rise in ``stats.writes_deduplicated``.
        """
        columns: StageColumns = defaultdict(list)
        write, read, finish = self._request_bodies(batch, columns)
        ops = batch.ops
        addresses = batch.addresses
        gaps = batch.gaps
        persistent = batch.persistent
        npi = cursor.ns_per_instruction
        exposure = cursor.read_stall_exposure
        clock = cursor.clock_ghz
        base_cpi = cursor.base_cpi

        instructions = cursor.instructions
        stall_cycles = cursor.stall_cycles
        compute_cycles = cursor.compute_cycles
        issued = reads = writes = 0

        data_lines = self.data_lines
        stats = self.stats
        deduplicated_before = stats.writes_deduplicated
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record
        stages = self.stages
        stage_on = stages.enabled
        st_write = columns["write"]
        st_read = columns["read"]
        wl = stats.write_latency
        wl_total, wl_count, wl_max, wl_min = wl.total_ns, wl.count, wl.max_ns, wl.min_ns
        rl = stats.read_latency
        rl_total, rl_count, rl_max, rl_min = rl.total_ns, rl.count, rl.max_ns, rl.min_ns

        active = cursor.active
        streams = cursor.streams
        positions = cursor.positions
        core_time = cursor.core_time
        # Run the earliest stream until its next arrival passes the
        # runner-up's (ties go to the lower rank, as in the scalar loop).
        if len(active) > 1:
            heap, rank, core, limit, limit_rank = merge_state(cursor)
        else:  # merge_state's lone-stream state, without the call
            (core,) = active
            heap, rank, limit, limit_rank = None, 0, INF, 0
        while True:
            stream = streams[core]
            position = positions[core]
            length = len(stream)
            now = core_time[core]
            while position < length and issued != max_requests:
                req = stream[position]
                gap = gaps[req]
                arrival = now + gap * npi
                if arrival >= limit and (arrival > limit or rank > limit_rank):
                    heappush(heap, (arrival, rank, core))
                    break
                instructions += gap
                compute_cycles += gap * base_cpi
                address = addresses[req]
                if not 0 <= address < data_lines:
                    raise IndexError(f"data line {address} out of range [0, {data_lines})")
                if ops[req]:
                    complete = write(req, address, arrival)
                    latency = complete - arrival
                    if stage_on:
                        st_write.append(latency)
                    wl_total += latency
                    wl_count += 1
                    if latency > wl_max:
                        wl_max = latency
                    if wl_count == 1 or latency < wl_min:
                        wl_min = latency
                    writes += 1
                    if persistent[req]:
                        now = complete
                        stall_cycles += latency * clock
                    else:
                        now = arrival
                else:
                    complete = read(req, address, arrival)
                    latency = complete - arrival
                    if stage_on:
                        st_read.append(latency)
                    rl_total += latency
                    rl_count += 1
                    if latency > rl_max:
                        rl_max = latency
                    if rl_count == 1 or latency < rl_min:
                        rl_min = latency
                    if timeline_on:
                        timeline.record_read(arrival, latency_ns=latency)
                    if record is not None:
                        record.append((req, complete))
                    exposed = latency * exposure
                    now = arrival + exposed
                    stall_cycles += exposed * clock
                    reads += 1
                issued += 1
                position += 1
            positions[core] = position
            core_time[core] = now
            if position >= length:
                active.discard(core)
            if not heap or issued == max_requests:
                break
            _, rank, core = heappop(heap)
            limit, limit_rank, _ = heap[0] if heap else NO_LIMIT

        wl.total_ns, wl.count, wl.max_ns, wl.min_ns = wl_total, wl_count, wl_max, wl_min
        rl.total_ns, rl.count, rl.max_ns, rl.min_ns = rl_total, rl_count, rl_max, rl_min
        finish()
        if stage_on:
            for stage, samples in columns.items():
                stages.record_many(stage, samples)
        if issued:
            self._complete_ns = complete
        cursor.instructions = instructions
        cursor.stall_cycles = stall_cycles
        cursor.compute_cycles = compute_cycles
        return issued, reads, writes, stats.writes_deduplicated - deduplicated_before

    # -- helpers ----------------------------------------------------------------

    def _check_line(self, data: bytes) -> None:
        if len(data) != self.line_size:
            raise ValueError(f"line must be {self.line_size} bytes, got {len(data)}")
