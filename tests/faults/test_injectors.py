"""Cell-fault and flush-fault injectors: determinism and policy semantics."""

from __future__ import annotations

import pytest

from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.registry import build_controller
from repro.faults.injectors import CellFaultInjector, FlushFaultModel
from repro.faults.journal import MetadataUpdate
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory

LINE = 256


def worn_nvm(writes_per_line=(8, 4, 2, 1)) -> NvmMainMemory:
    """An NVM whose wear tracker saw an uneven write distribution."""
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=1024 * LINE))
    )
    controller = build_controller("secure-nvm", nvm)
    now = 0.0
    for address, writes in enumerate(writes_per_line):
        for i in range(writes):
            data = bytes([address + 1]) * 128 + i.to_bytes(8, "little") + bytes(120)
            now = controller.write(address, data, now).complete_ns + 50.0
    return nvm


class TestCellFaultInjector:
    def test_validation(self):
        with pytest.raises(ValueError):
            CellFaultInjector(seed=1, faults=-1)
        with pytest.raises(ValueError):
            CellFaultInjector(seed=1, faults=1, mode="gamma_burst")
        with pytest.raises(ValueError):
            CellFaultInjector(seed=1, faults=1, bits=0)

    def test_same_seed_same_faults(self):
        nvm_a, nvm_b = worn_nvm(), worn_nvm()
        faults_a = CellFaultInjector(seed=42, faults=3).inject(nvm_a)
        faults_b = CellFaultInjector(seed=42, faults=3).inject(nvm_b)
        assert [f.to_dict() for f in faults_a] == [f.to_dict() for f in faults_b]

    def test_victims_come_from_written_lines(self):
        nvm = worn_nvm()
        written = set(nvm.wear.written_lines())
        faults = CellFaultInjector(seed=1, faults=100).inject(nvm)
        victims = [f.line for f in faults]
        assert set(victims) <= written
        assert len(victims) == len(set(victims))  # distinct
        assert len(victims) == len(written)  # demand beyond population: all

    def test_line_limit_restricts_victims(self):
        nvm = worn_nvm()
        faults = CellFaultInjector(seed=1, faults=100).inject(nvm, line_limit=2)
        assert faults  # lines 0 and 1 were written
        assert all(f.line < 2 for f in faults)

    def test_bit_flip_changes_content(self):
        nvm = worn_nvm()
        before = {f: nvm.peek(f) for f in nvm.wear.written_lines()}
        faults = CellFaultInjector(seed=3, faults=2, mode="bit_flip").inject(nvm)
        for fault in faults:
            assert fault.changed
            assert nvm.peek(fault.line) != before[fault.line]
            assert len(fault.bits) == 1

    def test_stuck_at_zero_forces_bits_low(self):
        nvm = worn_nvm()
        line_bits = LINE * 8
        faults = CellFaultInjector(
            seed=3, faults=1, mode="stuck_at_zero", bits=line_bits
        ).inject(nvm)
        [fault] = faults
        assert nvm.peek(fault.line) == bytes(LINE)

    def test_stuck_at_fault_on_matching_cell_reports_unchanged(self):
        nvm = worn_nvm()
        line_bits = LINE * 8
        CellFaultInjector(seed=3, faults=1, mode="stuck_at_zero", bits=line_bits).inject(nvm)
        # Same victim, same mode: the cell is already stuck — still reported.
        faults = CellFaultInjector(
            seed=3, faults=1, mode="stuck_at_zero", bits=line_bits
        ).inject(nvm)
        [fault] = faults
        assert not fault.changed

    def test_wear_bias_prefers_hot_lines(self):
        # Line 0 carries ~10x the weight of line 3; across many seeds it
        # must be picked first far more often (exact counts are seeded
        # and deterministic, so this is a fixed assertion, not flaky).
        nvm = worn_nvm(writes_per_line=(40, 4, 4, 4))
        first_picks = []
        for seed in range(30):
            injector = CellFaultInjector(seed=seed, faults=1)
            first_picks.append(injector.inject(nvm)[0].line)
            # inject() mutates cells but not wear counts, so reuse is fine.
        assert first_picks.count(0) > 15

    def test_zero_faults_skip_victim_sampling(self, monkeypatch):
        nvm = worn_nvm()

        def walk(*args):
            raise AssertionError("victim sampling walked the wear tracker")

        monkeypatch.setattr(nvm.wear, "written_lines", walk)
        injector = CellFaultInjector(seed=5, faults=0)
        state = injector._rng.getstate()
        assert injector.inject(nvm) == []
        assert injector._rng.getstate() == state

    @pytest.mark.parametrize("mode", ["bit_flip", "stuck_at_zero", "stuck_at_one"])
    def test_heal_restores_bytes_and_integer_mirror(self, mode):
        nvm = worn_nvm()
        lines = nvm.wear.written_lines()
        before = [(nvm.peek(line), nvm.peek_int(line)) for line in lines]
        injector = CellFaultInjector(seed=3, faults=4, mode=mode, bits=64)
        assert any(fault.changed for fault in injector.inject(nvm))
        injector.heal(nvm)
        assert [(nvm.peek(line), nvm.peek_int(line)) for line in lines] == before


def update(ns: float) -> MetadataUpdate:
    return MetadataUpdate(ns=ns, kind="map", key=int(ns), value=1)


def persistence(policy: MetadataPersistencePolicy, interval: float = 100.0):
    return MetadataPersistenceConfig(policy=policy, writeback_interval_ns=interval)


class TestFlushFaultModel:
    def test_drop_probability_validated(self):
        with pytest.raises(ValueError):
            FlushFaultModel(persistence(MetadataPersistencePolicy.BATTERY_BACKED), 1.5, 1)

    def test_battery_backed_never_drops(self):
        model = FlushFaultModel(
            persistence(MetadataPersistencePolicy.BATTERY_BACKED), 1.0, seed=1
        )
        events = tuple(update(float(ns)) for ns in range(10))
        kept, dropped = model.retained(events, horizon_ns=100.0)
        assert len(kept) == 10
        assert dropped == []

    def test_write_through_drops_each_event_independently(self):
        model = FlushFaultModel(
            persistence(MetadataPersistencePolicy.WRITE_THROUGH), 1.0, seed=1
        )
        events = tuple(update(float(ns)) for ns in range(10))
        kept, dropped = model.retained(events, horizon_ns=100.0)
        assert kept == []
        assert len(dropped) == 10

    def test_periodic_drops_only_final_flush_batch(self):
        # horizon 200, interval 100: only events in (100, 200] can tear —
        # earlier batches were re-persisted by every later flush.
        model = FlushFaultModel(
            persistence(MetadataPersistencePolicy.PERIODIC_WRITEBACK, 100.0),
            1.0,
            seed=1,
        )
        events = tuple(update(float(ns)) for ns in (10, 90, 100, 150, 200))
        kept, dropped = model.retained(events, horizon_ns=200.0)
        assert [e.ns for e in kept] == [10.0, 90.0, 100.0]
        assert [e.ns for e in dropped] == [150.0, 200.0]

    def test_events_past_horizon_excluded_from_both_lists(self):
        model = FlushFaultModel(
            persistence(MetadataPersistencePolicy.WRITE_THROUGH), 1.0, seed=1
        )
        events = (update(50.0), update(150.0))
        kept, dropped = model.retained(events, horizon_ns=100.0)
        assert kept == []
        assert [e.ns for e in dropped] == [50.0]  # 150 is a crash loss

    def test_zero_probability_keeps_everything(self):
        model = FlushFaultModel(
            persistence(MetadataPersistencePolicy.WRITE_THROUGH), 0.0, seed=1
        )
        events = tuple(update(float(ns)) for ns in range(5))
        kept, dropped = model.retained(events, horizon_ns=100.0)
        assert len(kept) == 5 and dropped == []

    def test_same_seed_same_split(self):
        events = tuple(update(float(ns)) for ns in range(50))

        def split():
            model = FlushFaultModel(
                persistence(MetadataPersistencePolicy.WRITE_THROUGH), 0.4, seed=9
            )
            return model.retained(events, horizon_ns=100.0)

        assert split() == split()
