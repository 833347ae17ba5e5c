"""Silent Shredder: zero-line elimination semantics."""

from __future__ import annotations

import pytest

from repro.baselines.secure_nvm import SecureNvmConfig
from repro.baselines.silent_shredder import SilentShredderController
from repro.core.registry import build_controller
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.stages import StageAccumulator
from repro.obs.trace import Tracer
from repro.system.simulator import simulate
from repro.workloads.worstcase import worst_case_trace

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


def observed_run(name: str, trace) -> tuple[dict, list, dict]:
    """The report (less its controller name), every span and the stage
    summary of one traced, summary-mode run."""
    tracer = Tracer(sink=None)
    stages = StageAccumulator()
    controller = build_controller(name, NvmMainMemory(), tracer=tracer, stages=stages)
    report = simulate(controller, trace).to_dict()
    del report["controller"]
    spans = [
        (span["name"], span["start_ns"], span["end_ns"], span["attrs"])
        for span in tracer.spans()
    ]
    return report, spans, stages.to_dict()


def test_without_zero_writes_it_is_the_cme_pipeline():
    # The shortcut arms are Silent Shredder's only code of its own: on a
    # trace with no all-zero write, every request runs the secure-NVM
    # controller's bodies, with the same timing, spans and stage samples.
    trace = worst_case_trace(2000, seed=1)
    assert not any(access.data == bytes(LINE) for access in trace.writes)
    shredder = observed_run("silent-shredder", trace)
    assert shredder[1]
    assert shredder == observed_run("secure-nvm", trace)
