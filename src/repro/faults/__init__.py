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

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public name -> defining submodule.  Exports load on first use (PEP 562),
#: so reading the campaign defaults from :mod:`repro.faults.plan` does not
#: compile the crash stack; a crash job loads it through
#: :mod:`repro.faults.campaign`.
_EXPORTS = {
    "ControllerFaultAdapter": "adapters",
    "UnsupportedControllerError": "adapters",
    "adapter_for": "adapters",
    "ConsistencyAuditor": "audit",
    "ConsistencyReport": "audit",
    "campaign_specs": "campaign",
    "crash_recovery_spec": "campaign",
    "vulnerability_table": "campaign",
    "CrashRun": "crash",
    "CrashScenarioResult": "crash",
    "CrashSimulator": "crash",
    "PowerLossError": "crash",
    "run_crash_scenario": "crash",
    "CellFault": "injectors",
    "CellFaultInjector": "injectors",
    "FlushFaultModel": "injectors",
    "DurabilityJournal": "journal",
    "DurableState": "journal",
    "MetadataUpdate": "journal",
    "replay": "journal",
    "CELL_FAULT_MODES": "plan",
    "DEFAULT_POINTS": "plan",
    "DEFAULT_POLICIES": "plan",
    "FaultPlan": "plan",
    "RecoveryManager": "recovery",
    "RecoveryResult": "recovery",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
