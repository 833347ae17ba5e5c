"""Silent Shredder: zero-line elimination semantics."""

from __future__ import annotations

import pytest

from repro.baselines.secure_nvm import SecureNvmConfig
from repro.baselines.silent_shredder import SilentShredderController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory

LINE = 256


def make_controller() -> SilentShredderController:
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )
    return SilentShredderController(nvm)


def line(fill: int) -> bytes:
    return bytes([fill]) * LINE


class TestZeroElimination:
    def test_zero_write_cancelled(self):
        controller = make_controller()
        outcome = controller.write(0, bytes(LINE), 0.0)
        assert outcome.deduplicated
        assert controller.nvm.writes == 0
        assert controller.shredded_lines == 1

    def test_zero_write_fast(self):
        controller = make_controller()
        controller.write(0, bytes(LINE), 0.0)  # warm counter cache block
        outcome = controller.write(1, bytes(LINE), 100_000.0)
        assert outcome.latency_ns < 10.0  # counter manipulation only

    def test_shredded_read_returns_zero_without_array_access(self):
        controller = make_controller()
        controller.write(0, bytes(LINE), 0.0)
        reads_before = controller.nvm.reads
        outcome = controller.read(0, 1_000.0)
        assert outcome.data == bytes(LINE)
        assert controller.nvm.reads == reads_before

    def test_nonzero_write_passes_through(self):
        controller = make_controller()
        outcome = controller.write(0, line(1), 0.0)
        assert not outcome.deduplicated
        assert controller.nvm.writes == 1

    def test_rewrite_after_shred(self):
        controller = make_controller()
        controller.write(0, bytes(LINE), 0.0)
        controller.write(0, line(9), 1_000.0)
        assert controller.shredded_lines == 0
        assert controller.read(0, 2_000.0).data == line(9)

    def test_shred_after_data(self):
        controller = make_controller()
        controller.write(0, line(9), 0.0)
        controller.write(0, bytes(LINE), 1_000.0)
        assert controller.read(0, 2_000.0).data == bytes(LINE)

    def test_split_counters_rejected(self):
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        with pytest.raises(ValueError, match="split counters"):
            SilentShredderController(nvm, SecureNvmConfig(use_split_counters=True))


class TestComparisonWithDuplication:
    def test_nonzero_duplicates_not_eliminated(self):
        # The paper's motivation: Silent Shredder misses non-zero dups.
        controller = make_controller()
        controller.write(0, line(7), 0.0)
        outcome = controller.write(1, line(7), 1_000.0)
        assert not outcome.deduplicated

    def test_elimination_counted_in_stats(self):
        controller = make_controller()
        controller.write(0, bytes(LINE), 0.0)
        controller.write(1, line(1), 1_000.0)
        assert controller.stats.writes_requested == 2
        assert controller.stats.writes_deduplicated == 1
        assert controller.stats.write_reduction == pytest.approx(0.5)
