"""BatchProfiler: deterministic attribution, non-invasive wall timing."""

from __future__ import annotations

import pytest

from repro.core.interface import MemoryController
from repro.core.registry import build_controller
from repro.nvm.memory import NvmMainMemory
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    BatchProfiler,
    render_stage_table,
    render_wall_summary,
)
from repro.obs.stages import StageAccumulator
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate


def make_profiler(ticks=None) -> BatchProfiler:
    controller = build_controller("dewrite", NvmMainMemory())
    if ticks is None:
        return BatchProfiler(controller)
    clock_values = iter(ticks)
    return BatchProfiler(controller, clock=lambda: next(clock_values))


class TestWrapping:
    def test_attach_shadows_instance_not_class(self):
        profiler = make_profiler()
        controller = profiler.controller
        with profiler:
            # The wrapper shadows via the instance __dict__; the class
            # attribute every other instance resolves to is untouched.
            assert "service_batch" in vars(controller)
            assert type(controller).service_batch is MemoryController.service_batch
            assert type(controller).service_batch is not controller.service_batch
        assert "service_batch" not in vars(controller)

    def test_detach_restores_class_implementation(self):
        profiler = make_profiler()
        controller = profiler.controller
        profiler.attach()
        profiler.detach()
        assert controller.service_batch.__func__ is type(controller).service_batch

    def test_double_attach_rejected(self):
        profiler = make_profiler()
        profiler.attach()
        with pytest.raises(RuntimeError):
            profiler.attach()
        profiler.detach()

    def test_detach_without_attach_is_noop(self):
        make_profiler().detach()


class TestDeterministicClock:
    def test_wall_accounting_from_injected_clock(self):
        # Two batches: 100 ns and 40 ns by the injected clock.
        profiler = make_profiler(ticks=(0, 100, 500, 540))
        trace = trace_for("lbm", 400, 5)
        with profiler:
            simulate(profiler.controller, trace, batch_size=256)
        assert profiler.batches == 2
        assert profiler.requests == 400
        assert profiler.wall_ns_total == 140
        assert profiler.wall_ns_min == 40
        assert profiler.wall_ns_max == 100
        wall = profiler.report()["wall"]
        assert wall["wall_ns_per_request"] == pytest.approx(140 / 400)

    def test_profiled_report_matches_unobserved(self):
        import json

        trace = trace_for("lbm", 400, 5)
        plain = simulate(build_controller("dewrite", NvmMainMemory()), trace)
        profiler = make_profiler(ticks=range(0, 10_000, 7))
        with profiler:
            profiled = simulate(profiler.controller, trace)
        assert json.dumps(profiled.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )


class TestAttribution:
    def run_profiled(self) -> BatchProfiler:
        profiler = make_profiler()
        with profiler:
            simulate(profiler.controller, trace_for("lbm", 400, 5))
        return profiler

    def test_stage_rows_heaviest_first_with_leaf_shares(self):
        profiler = self.run_profiled()
        rows = profiler.stage_rows()
        assert rows, "fused kernel recorded no stages"
        totals = [row["total_ns"] for row in rows]
        assert totals == sorted(totals, reverse=True)
        leaf_shares = [row["share"] for row in rows if "." in row["stage"]]
        assert all(share is not None for share in leaf_shares)
        assert sum(leaf_shares) == pytest.approx(1.0)
        composite = [row for row in rows if "." not in row["stage"]]
        assert all(row["share"] is None for row in composite)

    def test_collapsed_stacks_format(self):
        profiler = self.run_profiled()
        lines = profiler.collapsed_stacks()
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert int(weight) > 0
            parts = frames.split(";")
            assert parts[0] == "controller"
            assert parts[1] == "DeWriteController.service_batch"
            assert "." in parts[2]  # leaf stages only

    def test_report_shape(self):
        profiler = self.run_profiled()
        report = profiler.report()
        assert report["schema"] == PROFILE_SCHEMA_VERSION
        assert report["kernel"] == "DeWriteController.service_batch"
        assert set(report) == {
            "schema", "kernel", "stages", "stage_rows", "flamegraph", "wall",
        }
        rebuilt = StageAccumulator.from_dict(report["stages"])
        assert rebuilt.to_dict() == report["stages"]

    def test_renderers_produce_text(self):
        profiler = self.run_profiled()
        table = render_stage_table(profiler)
        assert "kernel: DeWriteController.service_batch" in table
        assert "write.crypto" in table
        summary = render_wall_summary(profiler)
        assert "non-deterministic" in summary

    def test_kernel_name_follows_controller_class(self):
        controller = build_controller("secure-nvm", NvmMainMemory())
        assert isinstance(controller, MemoryController)
        name = BatchProfiler(controller).kernel
        assert name == f"{type(controller).__name__}.service_batch"
