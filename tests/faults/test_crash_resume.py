"""A resumed crash run yields the payloads of a fresh run per crash point.

``run_crash_recovery_job`` keeps one paused :class:`CrashRun` per process
and resumes it for a later crash point of the same scenario.  Every test
here compares one serial pass that resumes against the same jobs with the
paused run released before every job (each job then replays its prefix
from access 0, as a parallel worker may), payload for payload.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import (
    campaign_specs,
    crash_recovery_spec,
    release_paused_run,
    run_crash_recovery_job,
)
from repro.faults.crash import CrashRun
from repro.faults.plan import CELL_FAULT_MODES, FaultPlan
from repro.runner.jobs import canonical_json

ACCESSES = 300
FAMILIES = ("dewrite", "secure-nvm", "silent-shredder", "i-nvmm")


@pytest.fixture
def serviced(monkeypatch):
    """Requests the crash runs service, summed over every crash."""
    count = [0]
    crash = CrashRun.crash

    def counting(self, plan, persistence):
        before = self.position
        result = crash(self, plan, persistence)
        count[0] += self.position - before
        return result

    monkeypatch.setattr(CrashRun, "crash", counting)
    return count


def payloads(jobs, *, resume: bool) -> list[str]:
    release_paused_run()
    out = []
    for job in jobs:
        if not resume:
            release_paused_run()
        out.append(canonical_json(run_crash_recovery_job(job.params)))
    release_paused_run()
    return out


def grid(points=(0.25, 0.5, 0.9), **overrides):
    return campaign_specs(
        workload="lbm",
        accesses=ACCESSES,
        seed=1,
        controllers=FAMILIES,
        points=points,
        **overrides,
    )


def spec(plan: FaultPlan, controller: str = "dewrite"):
    return crash_recovery_spec(
        workload="lbm",
        controller=controller,
        accesses=ACCESSES,
        seed=1,
        plan=plan,
        policy="write_through",
        interval_ns=100_000.0,
    )


@pytest.mark.parametrize("mode", CELL_FAULT_MODES)
def test_resumed_campaign_matches_fresh_runs(mode, serviced):
    jobs = grid(cell_faults=3, cell_fault_mode=mode, drop_probability=0.3)
    resumed = payloads(jobs, resume=True)
    resumed_requests = serviced[0]
    fresh = payloads(jobs, resume=False)
    assert resumed == fresh
    # Each (controller, policy) prefix is simulated once, up to its last
    # crash point (the access before ordinal int(300 * 0.9) = 270).
    assert resumed_requests == len(FAMILIES) * 3 * 269
    assert serviced[0] - resumed_requests == len(FAMILIES) * 3 * (74 + 149 + 269)


def test_descending_and_repeated_points_start_fresh(serviced):
    jobs = grid(points=(0.9, 0.5, 0.25, 0.5))
    resumed = payloads(jobs, resume=True)
    # 0.9 -> 0.5 and 0.5 -> 0.25 rewind; only 0.25 -> 0.5 resumes.
    assert serviced[0] == len(FAMILIES) * 3 * (269 + 149 + 74 + (149 - 74))
    assert resumed == payloads(jobs, resume=False)


def test_time_trigger_and_trace_end_interleave_with_resumes():
    jobs = [
        spec(FaultPlan(power_loss_at_access=100)),
        spec(FaultPlan(power_loss_ns=20_000.0)),  # never paused
        spec(FaultPlan(power_loss_at_access=150)),
        spec(FaultPlan(power_loss_at_access=ACCESSES + 5)),  # past the trace end
        spec(FaultPlan(power_loss_at_access=ACCESSES + 9)),  # resumes a finished run
        spec(FaultPlan()),  # no trigger: crash at the trace end
        spec(FaultPlan(power_loss_at_access=200, cell_faults=2), controller="i-nvmm"),
        spec(FaultPlan(power_loss_at_access=250, cell_faults=2), controller="i-nvmm"),
    ]
    resumed = payloads(jobs, resume=True)
    assert resumed == payloads(jobs, resume=False)
    scenarios = [run_crash_recovery_job(job.params)["scenario"] for job in jobs[3:5]]
    for scenario in scenarios:
        assert scenario["completed_trace"]
        assert scenario["accesses_before_crash"] == ACCESSES


class TestCrashRun:
    @staticmethod
    def run(plan: FaultPlan) -> CrashRun:
        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.runner.jobs import trace_for

        return CrashRun(build_controller("dewrite", NvmMainMemory()), trace_for("lbm", 200, 1), plan)

    @staticmethod
    def persistence():
        from repro.core.persistence import MetadataPersistenceConfig

        return MetadataPersistenceConfig()

    def test_ordinal_lands_on_a_batch_split(self):
        run = self.run(FaultPlan())
        for ordinal in (1, 40, 41, 120):
            result = run.crash(FaultPlan(power_loss_at_access=ordinal), self.persistence())
            assert run.position == result.accesses_before_crash == ordinal - 1
            assert run.cursor.serviced == ordinal - 1

    def test_rewinding_is_refused(self):
        run = self.run(FaultPlan())
        run.crash(FaultPlan(power_loss_at_access=100), self.persistence())
        assert not run.reaches(FaultPlan(power_loss_at_access=50))
        with pytest.raises(ValueError, match="behind the run"):
            run.crash(FaultPlan(power_loss_at_access=50), self.persistence())

    def test_time_trigger_halts_the_run(self):
        plan = FaultPlan(power_loss_ns=5_000.0)
        run = self.run(plan)
        result = run.crash(plan, self.persistence())
        assert run.halted_ns == result.crash_ns >= 5_000.0
        assert not result.completed_trace
        assert 0 < result.accesses_before_crash < 200
        assert not run.reaches(plan)
