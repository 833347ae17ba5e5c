"""Multi-core trace-driven system simulator.

Each core replays its slice of the trace: compute for the access's
instruction gap, then issue the request to the memory controller at its
current time.  Requests are processed in *global arrival order* (a small
merge across per-core cursors), which keeps the bank busy-until model
causally consistent.

Stall semantics (see :mod:`repro.system.cpu`):

- read: the core resumes after ``exposure × latency``;
- persistent write: the core resumes when the write completes (clwb+fence);
- posted write (LLC writeback): the core resumes immediately; the write
  still occupies its bank, which is what builds the queues DeWrite's
  eliminated writes dissolve.

IPC is aggregate: total instructions / cycles of the longest-running core.

Two execution paths produce byte-identical reports:

- the **batched path** (default): the trace's columnar
  :class:`~repro.workloads.batch.AccessBatch` is driven through the
  controller's :meth:`~repro.core.interface.MemoryController.service_batch`
  in ``batch_size``-request slices, letting controllers fuse crypto/hash
  work across a burst;
- the **scalar path** (``batch_size=None``): the original per-access loop,
  which drives the same kernels one request at a time through
  :meth:`~repro.core.interface.MemoryController.write` /
  :meth:`~repro.core.interface.MemoryController.read`.  The equivalence
  property tests compare the two; the reference for both is the golden
  reports in ``tests/system/test_controller_goldens.py``.
"""

from __future__ import annotations

from repro.core.batching import BatchCursor
from repro.core.interface import MemoryController
from repro.system.cpu import CoreModelConfig
from repro.system.metrics import SimulationReport
from repro.workloads.trace import Trace

DEFAULT_BATCH_SIZE = 1024


class SystemSimulator:
    """Replay one trace through one memory controller."""

    def __init__(
        self,
        controller: MemoryController,
        trace: Trace,
        core_config: CoreModelConfig | None = None,
        batch_size: int | None = DEFAULT_BATCH_SIZE,
    ) -> None:
        """``batch_size`` caps the requests per ``service_batch`` call;
        ``None`` selects the per-access loop."""
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive (or None for scalar)")
        self.controller = controller
        self.trace = trace
        self.core_config = core_config if core_config is not None else CoreModelConfig()
        self.batch_size = batch_size

    def run(self) -> SimulationReport:
        """Execute the whole trace; returns the aggregated report."""
        if self.batch_size is not None:
            return self._run_batched()
        return self._run_scalar()

    # -- batched path (default) -------------------------------------------------

    def _run_batched(self) -> SimulationReport:
        cfg = self.core_config
        batch = self.trace.as_batch()
        cursor = BatchCursor(
            batch,
            ns_per_instruction=cfg.ns_per_instruction,
            read_stall_exposure=cfg.read_stall_exposure,
            clock_ghz=cfg.clock_ghz,
            base_cpi=cfg.base_cpi,
        )
        controller = self.controller
        size = self.batch_size
        tracer = controller.tracer
        while not cursor.done:
            start_ns = cursor.makespan_ns()
            outcome = controller.service_batch(batch, cursor, max_requests=size)
            if tracer.enabled and outcome.serviced:
                # One aggregated span per controller batch: the coarse
                # counterpart of the per-request write/read spans, showing
                # how the run was sliced into bursts.
                tracer.span(
                    "batch",
                    start_ns,
                    cursor.makespan_ns(),
                    serviced=outcome.serviced,
                    reads=outcome.reads,
                    writes=outcome.writes,
                    deduplicated=outcome.deduplicated,
                )
        return self._report(
            cursor.instructions,
            cursor.compute_cycles,
            cursor.stall_cycles,
            cursor.makespan_ns(),
        )

    # -- scalar path (one request per call) -------------------------------------

    def _run_scalar(self) -> SimulationReport:
        cfg = self.core_config
        ns_per_instruction = cfg.ns_per_instruction

        # Split the trace into per-core streams, preserving order.
        streams: dict[int, list] = {}
        for access in self.trace:
            streams.setdefault(access.core, []).append(access)
        cursors = {core: 0 for core in streams}
        core_time = {core: 0.0 for core in streams}

        instructions = 0
        stall_cycles = 0.0
        compute_cycles = 0.0

        def next_arrival(core: int) -> float:
            access = streams[core][cursors[core]]
            return core_time[core] + access.gap_instructions * ns_per_instruction

        active = {core for core, stream in streams.items() if stream}
        while active:
            # Issue the globally earliest request.
            core = min(active, key=next_arrival)
            access = streams[core][cursors[core]]
            arrival = next_arrival(core)
            instructions += access.gap_instructions
            compute_cycles += access.gap_instructions * cfg.base_cpi

            if access.op == "read":
                outcome = self.controller.read(access.address, arrival)
                exposed = outcome.latency_ns * cfg.read_stall_exposure
                core_time[core] = arrival + exposed
                stall_cycles += cfg.cycles(exposed)
            else:
                outcome = self.controller.write(access.address, access.data, arrival)
                if access.persistent:
                    core_time[core] = outcome.complete_ns
                    stall_cycles += cfg.cycles(outcome.latency_ns)
                else:
                    core_time[core] = arrival

            cursors[core] += 1
            if cursors[core] >= len(streams[core]):
                active.discard(core)

        makespan = max(core_time.values(), default=0.0)
        return self._report(instructions, compute_cycles, stall_cycles, makespan)

    # -- shared report assembly --------------------------------------------------

    def _report(
        self,
        instructions: int,
        compute_cycles: float,
        stall_cycles: float,
        makespan: float,
    ) -> SimulationReport:
        total_cycles = compute_cycles + stall_cycles
        ipc = instructions / total_cycles if total_cycles else 0.0

        nvm = self.controller.nvm
        stats = self.controller.stats
        return SimulationReport(
            workload=self.trace.name,
            controller=type(self.controller).__name__,
            instructions=instructions,
            total_cycles=total_cycles,
            ipc=ipc,
            makespan_ns=makespan,
            mean_write_latency_ns=stats.write_latency.mean_ns,
            mean_read_latency_ns=stats.read_latency.mean_ns,
            energy_nj=nvm.energy.total_nj,
            energy_breakdown=nvm.energy.breakdown(),
            wear=nvm.wear.summary(),
            stats=stats,
            mean_bank_wait_ns=nvm.mean_bank_wait_ns(),
        )


def simulate(
    controller: MemoryController,
    trace: Trace,
    core_config: CoreModelConfig | None = None,
    batch_size: int | None = DEFAULT_BATCH_SIZE,
) -> SimulationReport:
    """One-shot convenience wrapper around :class:`SystemSimulator`."""
    return SystemSimulator(controller, trace, core_config, batch_size=batch_size).run()
