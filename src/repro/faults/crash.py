"""Crash simulation: power loss mid-run, recovery, audit, and resumption.

:class:`CrashSimulator` wraps any registered memory controller behind the
standard :class:`~repro.core.interface.MemoryController` surface.  Its
kernel attaches a list as the wrapped controller's
:attr:`~repro.core.interface.MemoryController.request_record`, hands the
whole crash segment to the wrapped kernel in one call, and folds the
drained rows per segment: the segment's committed writes are logged in
the :class:`~repro.workloads.oracle.ReplayOracle` (ground truth) as
``(address, payload, slot)`` in one call, and the controller's fault
adapter turns the segment's write rows into the semantic metadata updates
they implied in one call, which the
:class:`~repro.faults.journal.DurabilityJournal` appends and folds into
its live at-crash image.  A kernel that services requests without
recording them raises
:class:`~repro.faults.adapters.UnsupportedControllerError` before anything
is journaled.

Only a :class:`~repro.faults.plan.FaultPlan` with a sim-time power-loss
trigger steps one request at a time: before each request it checks the
trigger against the request's arrival and raises :class:`PowerLossError`
*before* issuing the doomed request, which ends the run.  Each step folds
through the same code.

:class:`CrashRun` drives the wrapper through ``service_batch`` with its
own :class:`~repro.core.batching.BatchCursor`.  An access-ordinal power
loss is a batch split: the run services exactly the accesses before the
ordinal (``max_requests``) and stops, so the doomed access never reaches
the controller, the journal or the oracle.  :meth:`CrashRun.crash` then
injects cell faults, recovers from the journal's live image, audits the
live state, and puts the faulted cells back, so the same run can resume
to a later crash point of the same scenario and yield the bytes a fresh
run to that point would.

The crash instant is the completion time of the last committed request:
in-flight array writes finish draining (the device's write circuit holds
enough charge to complete a programmed line), and it is the *metadata*
durability policy that decides what survives above that — exactly the
paper's §V framing.

:func:`run_crash_scenario` is the one-call orchestration: one
:class:`CrashRun` and one crash — simulate until power loss (or trace
end: a crash-without-clean-shutdown), inject wear-correlated cell faults,
recover, audit, and emit ``fault.*`` events on the trace bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Any

from repro.core.batching import BatchCursor, merge_state
from repro.core.interface import MemoryController
from repro.core.persistence import MetadataPersistenceConfig
from repro.faults.adapters import UnsupportedControllerError, adapter_for
from repro.faults.audit import ConsistencyAuditor, ConsistencyReport
from repro.faults.injectors import CellFault, CellFaultInjector, FlushFaultModel
from repro.faults.journal import DurabilityJournal
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager, RecoveryResult
from repro.obs.trace import TracerLike
from repro.system.cpu import CoreModelConfig
from repro.workloads.oracle import ReplayOracle
from repro.workloads.trace import Trace


_COMPLETE_NS = itemgetter(1)


class PowerLossError(RuntimeError):
    """Power failed at ``crash_ns``; the run cannot continue."""

    def __init__(self, crash_ns: float) -> None:
        super().__init__(f"power lost at {crash_ns:.1f} ns")
        self.crash_ns = crash_ns


class CrashSimulator(MemoryController):
    """Journal-keeping wrapper that pulls the plug per the fault plan."""

    def __init__(self, controller: MemoryController, plan: FaultPlan) -> None:
        super().__init__(controller.nvm)
        self.inner = controller
        self.stats = controller.stats
        self.adapter = adapter_for(controller)
        self.plan = plan
        self.journal = DurabilityJournal()
        self.oracle = ReplayOracle()
        #: Requests issued to the wrapped controller.
        self.accesses = 0
        self.last_complete_ns = 0.0

    def _propagate_observers(self, tracer, timeline, stages) -> None:
        self.inner.attach_observers(tracer=tracer, timeline=timeline, stages=stages)

    def _plaintext(self, address: int) -> bytes:
        return self.inner._plaintext(address)

    def _service_stream(self, batch, cursor, max_requests=None):
        """Run the wrapped kernel over the crash segment and fold its record.

        Without a sim-time trigger the segment is one kernel call.  With
        one, each request is the one the kernel's merge issues next (see
        :func:`~repro.core.batching.merge_state`), checked against the
        trigger before it is handed alone to the wrapped kernel.
        """
        inner = self.inner
        record = inner.request_record = []
        try:
            if self.plan.power_loss_ns is None:
                outcome = inner._service_stream(batch, cursor, max_requests)
                self._fold(batch, record, outcome[0])
            else:
                outcome = self._step(batch, cursor, max_requests, record)
        finally:
            inner.request_record = None
        self._complete_ns = inner._complete_ns
        return outcome

    def _step(self, batch, cursor, max_requests, record):
        """Service one request at a time, pulling the plug before the first
        whose arrival is past the plan's sim-time trigger (ordinal triggers
        are :class:`CrashRun` batch splits and never reach the wrapper)."""
        service = self.inner._service_stream
        loss_ns = self.plan.power_loss_ns
        gaps = batch.gaps
        npi = cursor.ns_per_instruction
        streams = cursor.streams
        positions = cursor.positions
        core_time = cursor.core_time
        serviced = reads = writes = deduplicated = 0
        lone = False
        while cursor.active and serviced != max_requests:
            if not lone:
                # A lone stream stays lone: its core issues every request left.
                core = merge_state(cursor)[2]
                lone = len(cursor.active) == 1
            if core_time[core] + gaps[streams[core][positions[core]]] * npi >= loss_ns:
                # Committed writes may have completed after the nominal loss
                # instant (they drained); the crash point covers them all.
                raise PowerLossError(max(self.last_complete_ns, loss_ns))
            done, done_reads, done_writes, done_dedup = service(batch, cursor, 1)
            self._fold(batch, record, done)
            serviced += done
            reads += done_reads
            writes += done_writes
            deduplicated += done_dedup
        return serviced, reads, writes, deduplicated

    def _fold(self, batch, record: list[tuple], serviced: int) -> None:
        """Fold the drained request record of ``serviced`` requests, in
        issue order, into the oracle, the journal and the crash clock."""
        if len(record) != serviced:
            raise UnsupportedControllerError(
                f"{type(self.inner).__name__} serviced {serviced} request(s) but "
                f"recorded {len(record)}; its crash journal would be partial"
            )
        if not record:
            return
        ops = batch.ops
        writes = [row for row in record if ops[row[0]]]
        if writes:
            self.oracle.observe_writes(batch, [row[0] for row in writes])
            events: list[tuple] = []
            self.adapter.journal_rows(batch.addresses, writes, events)
            self.journal.extend(events)
        last = max(map(_COMPLETE_NS, record))
        if last > self.last_complete_ns:
            self.last_complete_ns = last
        self.accesses += serviced
        record.clear()


@dataclass(frozen=True)
class CrashScenarioResult:
    """Everything one fault scenario produced, JSON-serialisable."""

    plan: FaultPlan
    policy: str
    completed_trace: bool
    crash_ns: float
    accesses_before_crash: int
    recovery: RecoveryResult
    report: ConsistencyReport
    cell_faults: tuple[CellFault, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "policy": self.policy,
            "completed_trace": self.completed_trace,
            "crash_ns": self.crash_ns,
            "accesses_before_crash": self.accesses_before_crash,
            "recovery": self.recovery.to_dict(),
            "report": self.report.to_dict(),
            "cell_faults": [fault.to_dict() for fault in self.cell_faults],
        }


class CrashRun:
    """One crash-instrumented run that pauses at each crash point.

    The run services the trace through the wrapper's ``service_batch`` up
    to a crash point, then :meth:`crash` evaluates the power loss there on
    the live state.  Every crash-time effect is undone or kept out of the
    run's state (cell faults are healed; recovery and audit only read), so
    a later crash point of the same scenario resumes from here instead of
    replaying the prefix from access 0.
    """

    def __init__(
        self,
        controller: MemoryController,
        trace: Trace,
        plan: FaultPlan,
        core: CoreModelConfig | None = None,
        tracer: TracerLike | None = None,
    ) -> None:
        self.wrapper = CrashSimulator(controller, plan)
        if tracer is not None:
            self.wrapper.attach_observers(tracer=tracer)
        cfg = core if core is not None else CoreModelConfig()
        self.batch = trace.as_batch()
        self.cursor = BatchCursor(
            self.batch,
            ns_per_instruction=cfg.ns_per_instruction,
            read_stall_exposure=cfg.read_stall_exposure,
            clock_ghz=cfg.clock_ghz,
            base_cpi=cfg.base_cpi,
        )
        #: Crash instant of a sim-time power loss; the run cannot continue.
        self.halted_ns: float | None = None

    @property
    def position(self) -> int:
        """Accesses serviced so far."""
        return self.wrapper.accesses

    def reaches(self, plan: FaultPlan) -> bool:
        """Whether :meth:`crash` can serve ``plan`` without rewinding."""
        ordinal = plan.power_loss_at_access
        return self.halted_ns is None and (ordinal is None or ordinal - 1 >= self.position)

    def crash(
        self, plan: FaultPlan, persistence: MetadataPersistenceConfig
    ) -> CrashScenarioResult:
        """Lose power at ``plan``'s crash point, then recover and audit.

        ``plan``'s crash point must lie at or past :attr:`position`
        (:meth:`reaches`); its cell and flush faults apply to this crash
        only.  The sim-time trigger is the one the run was built with.
        ``persistence`` is the crash-consistency policy the durability
        model honours (see :func:`run_crash_scenario`).
        """
        wrapper = self.wrapper
        if not self.reaches(plan):
            raise ValueError(
                f"crash point {plan.power_loss_at_access} is behind the run "
                f"(at access {self.position}, halted: {self.halted_ns is not None})"
            )
        ordinal = plan.power_loss_at_access
        try:
            wrapper.service_batch(
                self.batch,
                self.cursor,
                max_requests=None if ordinal is None else ordinal - 1 - self.position,
            )
        except PowerLossError as exc:
            self.halted_ns = exc.crash_ns
        completed = self.halted_ns is None and self.cursor.done
        crash_ns = wrapper.last_complete_ns if self.halted_ns is None else self.halted_ns
        tracer = wrapper.tracer
        if tracer.enabled:
            tracer.event(
                "fault.power_loss",
                sim_ns=crash_ns,
                policy=persistence.policy.value,
                # Requests that reached the plug, the doomed one included.
                accesses=self.position + (0 if completed else 1),
                completed_trace=completed,
            )

        nvm = wrapper.inner.nvm
        injector = CellFaultInjector(
            seed=plan.seed,
            faults=plan.cell_faults,
            mode=plan.cell_fault_mode,
            bits=plan.cell_fault_bits,
        )
        cell_faults = injector.inject(nvm, line_limit=wrapper.adapter.data_lines())
        if tracer.enabled:
            for fault in cell_faults:
                tracer.event(
                    "fault.cell",
                    sim_ns=crash_ns,
                    line=fault.line,
                    mode=fault.mode,
                    bits=list(fault.bits),
                    changed=fault.changed,
                )

        flush_faults = FlushFaultModel(
            persistence, drop_probability=plan.flush_drop_probability, seed=plan.seed
        )
        manager = RecoveryManager(wrapper.adapter, persistence, flush_faults)
        recovery = manager.recover(wrapper.journal, crash_ns)
        if tracer.enabled and recovery.dropped_events:
            tracer.event(
                "fault.flush_drop",
                sim_ns=crash_ns,
                dropped=recovery.dropped_events,
                policy=persistence.policy.value,
            )

        auditor = ConsistencyAuditor(wrapper.oracle, wrapper.adapter)
        report = auditor.audit(recovery.durable)
        injector.heal(nvm)
        return CrashScenarioResult(
            plan=plan,
            policy=persistence.policy.value,
            completed_trace=completed,
            crash_ns=crash_ns,
            accesses_before_crash=self.position,
            recovery=recovery,
            report=report,
            cell_faults=tuple(cell_faults),
        )


def run_crash_scenario(
    controller: MemoryController,
    trace: Trace,
    plan: FaultPlan,
    persistence: MetadataPersistenceConfig,
    core: CoreModelConfig | None = None,
    tracer: TracerLike | None = None,
) -> CrashScenarioResult:
    """Simulate under ``plan``, then recover and audit the wreckage.

    ``persistence`` is the crash-consistency policy the durability model
    honours.  For DeWrite-family controllers it should match the
    controller's own configured policy (so runtime flush traffic and the
    crash model agree); for the secure baselines — whose configs carry no
    persistence knob — it is purely the crash-model assumption.
    """
    return CrashRun(controller, trace, plan, core, tracer).crash(plan, persistence)
