"""Post-crash metadata recovery over the durable journal image.

After power loss the volatile controller is gone; what remains is the NVM
array plus whatever metadata the configured
:class:`~repro.core.persistence.MetadataPersistencePolicy` made durable.
The :class:`RecoveryManager` models the reboot-time scan that rebuilds the
dedup index / counter table from that durable image:

1. compute the durability horizon for the crash instant
   (:meth:`~repro.core.persistence.MetadataPersistenceConfig.durable_horizon_ns`);
2. snapshot the journal's live at-crash image
   (:attr:`~repro.faults.journal.DurabilityJournal.state`), the metadata
   state the run actually reached;
3. if the horizon or the :class:`~repro.faults.injectors.FlushFaultModel`
   (torn persists) cuts any event, replay the surviving events into the
   durable :class:`~repro.faults.journal.DurableState`; otherwise the
   durable image *is* the snapshot (battery-backed and write-through
   without drops), shared rather than rebuilt;
4. diff the two images into the damage metrics: lines whose encryption
   counter advanced past its durable value (rendered undecryptable —
   counter-mode pads are counter-specific) and logical lines whose dedup
   reference points at content that changed after the horizon.

The scan cost is charged as one sequential read + metadata-block decrypt
per metadata line — the price the paper's §V survey attributes to
recovery-based schemes versus battery-backed ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.persistence import MetadataPersistenceConfig
from repro.faults.adapters import ControllerFaultAdapter
from repro.faults.injectors import FlushFaultModel
from repro.faults.journal import DurabilityJournal, DurableState, replay


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one reboot-time metadata recovery."""

    crash_ns: float
    horizon_ns: float
    policy: str
    total_events: int
    durable_events: int
    dropped_events: int
    recovered_mappings: int
    recovered_counters: int
    lost_counter_lines: tuple[int, ...]
    broken_references: tuple[int, ...]
    recovery_time_ns: float
    durable: DurableState = field(compare=False, repr=False)
    at_crash: DurableState = field(compare=False, repr=False)

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped metrics (the two state images stay in-process)."""
        return {
            "crash_ns": self.crash_ns,
            "horizon_ns": self.horizon_ns,
            "policy": self.policy,
            "total_events": self.total_events,
            "durable_events": self.durable_events,
            "dropped_events": self.dropped_events,
            "recovered_mappings": self.recovered_mappings,
            "recovered_counters": self.recovered_counters,
            "lost_counter_lines": list(self.lost_counter_lines),
            "broken_references": list(self.broken_references),
            "recovery_time_ns": self.recovery_time_ns,
        }


class RecoveryManager:
    """Rebuilds the durable metadata image and quantifies the damage."""

    def __init__(
        self,
        adapter: ControllerFaultAdapter,
        persistence: MetadataPersistenceConfig,
        flush_faults: FlushFaultModel | None = None,
    ) -> None:
        self.adapter = adapter
        self.persistence = persistence
        self.flush_faults = flush_faults

    def recover(self, journal: DurabilityJournal, crash_ns: float) -> RecoveryResult:
        """Run the recovery scan for a crash at ``crash_ns``.

        The returned images are snapshots: the run may resume afterwards.
        """
        horizon = self.persistence.durable_horizon_ns(crash_ns)
        at_crash = journal.state.copy()
        total = len(journal)
        flush_faults = self.flush_faults
        if journal.latest_ns <= horizon and (flush_faults is None or not flush_faults.may_drop):
            kept, dropped = total, 0
        elif flush_faults is not None:
            survivors, lost = flush_faults.retained(journal.rows(), horizon)
            kept, dropped = len(survivors), len(lost)
        else:
            survivors = [event for event in journal.rows() if event[0] <= horizon]
            kept, dropped = len(survivors), 0

        if kept == total:
            # Nothing was cut: the durable image is the at-crash image.
            durable = at_crash
            lost_counters: tuple[int, ...] = ()
            broken: tuple[int, ...] = ()
        else:
            durable = replay(survivors)
            lost_counters = tuple(
                sorted(
                    phys
                    for phys in set(durable.mapping.values())
                    if at_crash.counters.get(phys, 0) > durable.counters.get(phys, 0)
                )
            )
            broken = tuple(
                sorted(
                    logical
                    for logical, phys in durable.mapping.items()
                    if durable.stored.get(phys) != at_crash.stored.get(phys)
                )
            )
        nvm = self.adapter.controller.nvm
        scan_lines = self.adapter.metadata_lines()
        recovery_time = scan_lines * (
            nvm.config.timing.read_ns + self.adapter.metadata_decrypt_ns()
        )
        return RecoveryResult(
            crash_ns=crash_ns,
            horizon_ns=horizon,
            policy=self.persistence.policy.value,
            total_events=total,
            durable_events=kept,
            dropped_events=dropped,
            recovered_mappings=len(durable.mapping),
            recovered_counters=len(durable.counters),
            lost_counter_lines=lost_counters,
            broken_references=broken,
            recovery_time_ns=recovery_time,
            durable=durable,
            at_crash=at_crash,
        )
