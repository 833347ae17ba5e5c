"""repro.faults: deterministic fault injection, crash recovery, auditing.

The crash-consistency counterpart of the performance stack.  Where the
rest of the repo measures how fast each secure-NVM controller runs, this
package measures what each controller *loses* when the power fails:

- :mod:`repro.faults.plan`      — seeded, sim-time-driven fault plans;
- :mod:`repro.faults.journal`   — semantic metadata-durability journal;
- :mod:`repro.faults.adapters`  — per-controller-family journal bridges;
- :mod:`repro.faults.injectors` — wear-correlated cell faults and
  policy-aware torn metadata flushes;
- :mod:`repro.faults.crash`     — the power-loss wrapper and the
  resumable simulate → crash → recover → audit run;
- :mod:`repro.faults.recovery`  — reboot-time metadata reconstruction;
- :mod:`repro.faults.audit`     — oracle-backed intact/stale/lost verdicts;
- :mod:`repro.faults.campaign`  — runner-integrated fault campaigns and
  the §V vulnerability-window table.

See docs/architecture.md §13 for the design rationale.
"""

from repro.faults.adapters import (
    ControllerFaultAdapter,
    UnsupportedControllerError,
    adapter_for,
)
from repro.faults.audit import ConsistencyAuditor, ConsistencyReport
from repro.faults.campaign import campaign_specs, crash_recovery_spec, vulnerability_table
from repro.faults.crash import (
    CrashRun,
    CrashScenarioResult,
    CrashSimulator,
    PowerLossError,
    run_crash_scenario,
)
from repro.faults.injectors import CellFault, CellFaultInjector, FlushFaultModel
from repro.faults.journal import DurabilityJournal, DurableState, MetadataUpdate, replay
from repro.faults.plan import CELL_FAULT_MODES, FaultPlan
from repro.faults.recovery import RecoveryManager, RecoveryResult

__all__ = [
    "CELL_FAULT_MODES",
    "CellFault",
    "CellFaultInjector",
    "ConsistencyAuditor",
    "ConsistencyReport",
    "ControllerFaultAdapter",
    "CrashRun",
    "CrashScenarioResult",
    "CrashSimulator",
    "DurabilityJournal",
    "DurableState",
    "FaultPlan",
    "FlushFaultModel",
    "MetadataUpdate",
    "PowerLossError",
    "RecoveryManager",
    "RecoveryResult",
    "UnsupportedControllerError",
    "adapter_for",
    "campaign_specs",
    "crash_recovery_spec",
    "replay",
    "run_crash_scenario",
    "vulnerability_table",
]
