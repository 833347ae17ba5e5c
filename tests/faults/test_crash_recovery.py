"""Crash simulation, recovery and consistency auditing, end to end."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.interface import MemoryController
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.registry import available_controllers, build_controller
from repro.faults.adapters import (
    DedupFamilyAdapter,
    INvmmAdapter,
    SecureFamilyAdapter,
    ShredderAdapter,
    UnsupportedControllerError,
    adapter_for,
)
from repro.faults.audit import ConsistencyAuditor, ConsistencyReport
from repro.faults.crash import CrashRun, CrashSimulator, PowerLossError, run_crash_scenario
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.trace import Tracer
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace

LINE = 256

#: One representative controller per adapter family.
FAMILIES = ("dewrite", "secure-nvm", "silent-shredder", "i-nvmm")


def make_nvm() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )


def persistence(policy: str, interval_ns: float = 100_000.0) -> MetadataPersistenceConfig:
    return MetadataPersistenceConfig(
        policy=MetadataPersistencePolicy(policy), writeback_interval_ns=interval_ns
    )


def trace(accesses: int = 400, name: str = "lbm"):
    return generate_trace(profile_by_name(name), accesses, seed=1)


def fill(value: int) -> bytes:
    return bytes([value]) * LINE


def hand_trace(*ops: tuple) -> Trace:
    """One core issuing ``("write", address, fill)`` / ``("read", address)``."""
    accesses = [
        MemoryAccess(0, "write", op[1], fill(op[2]), gap_instructions=100)
        if op[0] == "write"
        else MemoryAccess(0, "read", op[1], gap_instructions=100)
        for op in ops
    ]
    return Trace("hand", accesses)


class TestCrashSimulator:
    def test_access_trigger_raises_before_issuing(self):
        controller = build_controller("dewrite", make_nvm())
        plan = FaultPlan(power_loss_at_access=2)
        run = CrashRun(controller, hand_trace(("write", 0, 1), ("write", 1, 2)), plan)
        result = run.crash(plan, persistence("battery_backed"))
        assert not result.completed_trace
        assert result.accesses_before_crash == 1
        # The doomed write never reached the controller, journal or oracle.
        assert controller.stats.writes_requested == 1
        assert {e.key for e in run.wrapper.journal.events() if e.kind == "map"} == {0}
        assert run.wrapper.oracle.written_addresses() == (0,)

    def test_time_trigger_covers_drained_writes(self):
        controller = build_controller("dewrite", make_nvm())
        wrapper = CrashSimulator(controller, FaultPlan(power_loss_ns=500.0))
        outcome = wrapper.write(0, fill(1), 0.0)
        with pytest.raises(PowerLossError) as excinfo:
            wrapper.write(1, fill(2), 600.0)
        # Crash instant covers the committed write's completion.
        assert excinfo.value.crash_ns >= outcome.complete_ns

    def test_reads_count_toward_access_ordinal(self):
        controller = build_controller("dewrite", make_nvm())
        plan = FaultPlan(power_loss_at_access=3)
        run = CrashRun(
            controller, hand_trace(("write", 0, 1), ("read", 0), ("read", 0)), plan
        )
        result = run.crash(plan, persistence("battery_backed"))
        assert result.accesses_before_crash == 2
        # The second read was the doomed access.
        assert controller.stats.reads_requested == 1

    def test_journal_grows_with_writes_not_reads(self):
        controller = build_controller("dewrite", make_nvm())
        wrapper = CrashSimulator(controller, FaultPlan())
        wrapper.write(0, fill(1), 0.0)
        events_after_write = len(wrapper.journal)
        wrapper.read(0, 1_000.0)
        assert events_after_write > 0
        assert len(wrapper.journal) == events_after_write


class TestAdapterDispatch:
    def test_every_registered_family_supported(self):
        for name in FAMILIES:
            adapter = adapter_for(build_controller(name, make_nvm()))
            assert adapter.metadata_lines() > 0
            assert adapter.data_lines() > 0

    def test_adapter_family_of_every_registered_controller(self):
        expected = {
            "dewrite": DedupFamilyAdapter,
            "direct": DedupFamilyAdapter,
            "parallel": DedupFamilyAdapter,
            "traditional-dedup": DedupFamilyAdapter,
            "secure-nvm": SecureFamilyAdapter,
            "out-of-line": SecureFamilyAdapter,
            "silent-shredder": ShredderAdapter,
            "i-nvmm": INvmmAdapter,
        }
        assert sorted(expected) == sorted(available_controllers())
        for name, adapter in expected.items():
            assert type(adapter_for(build_controller(name, make_nvm()))) is adapter

    def test_dispatch_loads_no_unused_baseline(self):
        # A fresh interpreter: this process has imported every baseline.
        probe = (
            "import sys\n"
            "from repro.core.registry import build_controller\n"
            "from repro.faults.adapters import adapter_for\n"
            "from repro.nvm.memory import NvmMainMemory\n"
            "for name in ('dewrite', 'secure-nvm'):\n"
            "    print(type(adapter_for(build_controller(name, NvmMainMemory()))).__name__)\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.baselines.')))\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
        ).stdout.splitlines()
        assert out == [
            "DedupFamilyAdapter",
            "SecureFamilyAdapter",
            "['repro.baselines.secure_nvm']",
        ]

    def test_unknown_controller_rejected(self):
        class Mystery(MemoryController):
            def _service_stream(self, batch, cursor, max_requests=None):
                raise NotImplementedError

        with pytest.raises(UnsupportedControllerError):
            adapter_for(Mystery(make_nvm()))


@pytest.mark.parametrize("name", FAMILIES)
class TestEndToEndScenario:
    def test_battery_backed_loses_nothing(self, name):
        result = run_crash_scenario(
            build_controller(name, make_nvm()),
            trace(),
            FaultPlan(power_loss_at_access=200),
            persistence("battery_backed"),
        )
        result.report.verify()
        assert not result.completed_trace
        assert result.accesses_before_crash == 199
        assert result.report.lost == 0
        assert result.report.stale == 0
        assert result.report.intact == result.report.total_lines

    def test_write_through_without_tearing_matches_battery(self, name):
        plan = FaultPlan(power_loss_at_access=200)
        reports = [
            run_crash_scenario(
                build_controller(name, make_nvm()), trace(), plan, persistence(policy)
            ).report
            for policy in ("battery_backed", "write_through")
        ]
        assert reports[0] == reports[1]

    def test_periodic_losses_confined_to_vulnerability_window(self, name):
        interval = 2_000.0
        plan = FaultPlan(power_loss_at_access=300)
        run = CrashRun(build_controller(name, make_nvm()), trace(), plan)
        result = run.crash(plan, persistence("periodic_writeback", interval_ns=interval))
        assert not result.completed_trace
        crash_ns, recovery, report = result.crash_ns, result.recovery, result.report
        report.verify()
        horizon = recovery.horizon_ns
        assert horizon == pytest.approx((crash_ns // interval) * interval)
        # Damage is confined to the vulnerability window: a non-intact
        # line must trace back to metadata activity after the last flush
        # boundary — anything whose journal went quiet before the horizon
        # was durable and recovers intact.
        damaged = set(report.stale_examples) | set(report.lost_examples)
        touched_after = {e.key for e in run.wrapper.journal.events() if e.ns > horizon}
        assert damaged <= touched_after

    def test_same_plan_same_report(self, name):
        def run():
            return run_crash_scenario(
                build_controller(name, make_nvm()),
                trace(),
                FaultPlan(power_loss_at_access=250, cell_faults=2,
                          flush_drop_probability=0.3),
                persistence("write_through"),
            )

        first, second = run(), run()
        assert first.to_dict() == second.to_dict()


class TestVerdictConstructions:
    def test_dedup_stale_reference(self):
        # B=x then A=x (A dedups onto B's line); the horizon passes; A=y.
        # The durable image still maps A at B's line, whose content
        # decrypts fine but is one version behind: stale.
        controller = build_controller("dewrite", make_nvm())
        wrapper = CrashSimulator(controller, FaultPlan())
        x, y = fill(0xAA), fill(0xBB)
        wrapper.write(1, x, 0.0)
        wrapper.write(0, x, 500.0)
        outcome = wrapper.write(0, y, 150_000.0)
        manager = RecoveryManager(wrapper.adapter, persistence("periodic_writeback"))
        recovery = manager.recover(wrapper.journal, outcome.complete_ns)
        report = ConsistencyAuditor(wrapper.oracle, wrapper.adapter).audit(
            recovery.durable
        )
        assert report.stale == 1
        assert report.stale_examples == (0,)
        assert wrapper.adapter.recovered_lines(recovery.durable, (0,)) == [x]

    def test_shredder_stale_after_unpersisted_shred(self):
        # A=v1, horizon, A=zeros (a shred mark, not an array write).  The
        # durable image never saw the shred: the array still holds v1's
        # ciphertext under the durable counter — stale, not lost.
        controller = build_controller("silent-shredder", make_nvm())
        wrapper = CrashSimulator(controller, FaultPlan())
        v1 = fill(0x11)
        wrapper.write(0, v1, 0.0)
        outcome = wrapper.write(0, bytes(LINE), 150_000.0)
        manager = RecoveryManager(wrapper.adapter, persistence("periodic_writeback"))
        recovery = manager.recover(wrapper.journal, outcome.complete_ns)
        report = ConsistencyAuditor(wrapper.oracle, wrapper.adapter).audit(
            recovery.durable
        )
        assert report.stale == 1
        assert wrapper.adapter.recovered_lines(recovery.durable, (0,)) == [v1]

    def test_lost_counter_renders_line_undecryptable(self):
        # A=v1 durable; A=v2 past the horizon bumps the counter in place.
        # The durable counter no longer matches the array bytes: lost.
        controller = build_controller("secure-nvm", make_nvm())
        wrapper = CrashSimulator(controller, FaultPlan())
        wrapper.write(0, fill(0x11), 0.0)
        outcome = wrapper.write(0, fill(0x22), 150_000.0)
        manager = RecoveryManager(wrapper.adapter, persistence("periodic_writeback"))
        recovery = manager.recover(wrapper.journal, outcome.complete_ns)
        assert recovery.lost_counter_lines == (0,)
        report = ConsistencyAuditor(wrapper.oracle, wrapper.adapter).audit(
            recovery.durable
        )
        assert report.lost == 1

    def test_cell_faults_can_only_hurt(self):
        plan = FaultPlan(power_loss_at_access=200)
        faulty_plan = FaultPlan(power_loss_at_access=200, cell_faults=4)
        clean = run_crash_scenario(
            build_controller("dewrite", make_nvm()), trace(), plan,
            persistence("battery_backed"),
        )
        faulty = run_crash_scenario(
            build_controller("dewrite", make_nvm()), trace(), faulty_plan,
            persistence("battery_backed"),
        )
        faulty.report.verify()
        # Victims are drawn from written data lines; dedup can shrink the
        # population below the demanded fault count.
        assert 1 <= len(faulty.cell_faults) <= 4
        assert faulty.report.intact <= clean.report.intact
        assert faulty.report.total_lines == clean.report.total_lines


class TestRecoveryMetrics:
    def test_recovery_time_prices_the_metadata_scan(self):
        controller = build_controller("dewrite", make_nvm())
        result = run_crash_scenario(
            controller, trace(accesses=100), FaultPlan(power_loss_at_access=50),
            persistence("battery_backed"),
        )
        adapter = adapter_for(controller)
        expected = adapter.metadata_lines() * (
            controller.nvm.config.timing.read_ns + adapter.metadata_decrypt_ns()
        )
        assert result.recovery.recovery_time_ns == pytest.approx(expected)

    def test_scenario_serialises_to_plain_json(self):
        import json

        result = run_crash_scenario(
            build_controller("secure-nvm", make_nvm()), trace(accesses=100),
            FaultPlan(power_loss_at_access=50, cell_faults=1),
            persistence("periodic_writeback"),
        )
        payload = json.loads(json.dumps(result.to_dict()))
        ConsistencyReport.from_dict(payload["report"])
        assert payload["policy"] == "periodic_writeback"
        assert payload["plan"]["cell_faults"] == 1

    def test_trace_bus_receives_fault_events(self):
        tracer = Tracer()
        run_crash_scenario(
            build_controller("dewrite", make_nvm()), trace(accesses=100),
            FaultPlan(power_loss_at_access=50, cell_faults=1),
            persistence("battery_backed"),
            tracer=tracer,
        )
        names = [r["name"] for r in tracer.records if r["type"] == "event"]
        assert "fault.power_loss" in names
        assert "fault.cell" in names

    def test_clean_run_crashes_at_trace_end(self):
        result = run_crash_scenario(
            build_controller("dewrite", make_nvm()), trace(accesses=100),
            FaultPlan(),  # no trigger: power pulled after the last access
            persistence("battery_backed"),
        )
        assert result.completed_trace
        assert result.accesses_before_crash == 100
        assert result.report.intact == result.report.total_lines
