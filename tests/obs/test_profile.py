"""The stage profile: a trace's sim-clock spans folded into a
:class:`~repro.obs.stages.StageAccumulator`, behind ``repro trace
--flamegraph`` and ``--manifest``."""

from __future__ import annotations

import json

import pytest

from repro.core.interface import MemoryController
from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.obs.stages import StageAccumulator, collapsed_stacks, fold_spans
from repro.obs.trace import Tracer
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate


def kernel_of(controller: MemoryController) -> str:
    return f"{type(controller).__name__}.service_batch"


def traced(name: str = "dewrite") -> tuple[MemoryController, StageAccumulator]:
    tracer = Tracer(sink=None)
    controller = build_controller(name, NvmMainMemory(), tracer=tracer)
    simulate(controller, trace_for("lbm", 400, 5))
    return controller, fold_spans(tracer.stage_durations(clock="sim"))


class TestDeterministicClock:
    def test_profiled_report_matches_unobserved(self):
        trace = trace_for("lbm", 400, 5)
        plain = simulate(build_controller("dewrite", NvmMainMemory()), trace)
        profiled = simulate(
            build_controller("dewrite", NvmMainMemory(), tracer=Tracer(sink=None)), trace
        )
        assert json.dumps(profiled.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )


class TestAttribution:
    @pytest.mark.parametrize("name", sorted(available_controllers()))
    def test_fold_equals_summary_mode(self, name):
        # The whole accumulator, histograms included, not just the totals
        # the reconciliation suite compares.
        summary = StageAccumulator()
        simulate(build_controller(name, NvmMainMemory(), stages=summary),
                 trace_for("lbm", 400, 5))
        _, folded = traced(name)
        assert folded.to_dict() == summary.to_dict()

    def test_collapsed_stacks_format(self):
        controller, folded = traced()
        lines = collapsed_stacks(folded, kernel_of(controller))
        assert lines
        for line in lines:
            frames, _, weight = line.rpartition(" ")
            assert int(weight) > 0
            parts = frames.split(";")
            assert parts[0] == "controller"
            assert parts[1] == "DeWriteController.service_batch"
            assert "." in parts[2]  # leaf stages only

    def test_report_shape(self):
        _, folded = traced()
        assert "write.crypto" in folded.stage_names()
        # Pipeline stages only: no device sub-spans, no batch envelope.
        assert not [s for s in folded.stage_names() if s.startswith(("nvm.", "batch"))]
        payload = folded.to_dict()
        assert StageAccumulator.from_dict(payload).to_dict() == payload

    def test_renderers_produce_text(self):
        controller, folded = traced()
        text = "\n".join(collapsed_stacks(folded, kernel_of(controller)))
        assert "controller;DeWriteController.service_batch;write.crypto " in text

    def test_kernel_name_follows_controller_class(self):
        controller, folded = traced("secure-nvm")
        lines = collapsed_stacks(folded, kernel_of(controller))
        assert lines
        assert all(
            line.startswith("controller;TraditionalSecureNvmController.service_batch;")
            for line in lines
        )
