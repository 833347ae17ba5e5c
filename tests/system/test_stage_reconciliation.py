"""Summary-mode reconciliation — the stage accumulator's correctness bar.

The kernels feed a :class:`~repro.obs.stages.StageAccumulator`
columnar, per batch, while a :class:`~repro.obs.trace.Tracer` gets one
span per stage occurrence from the same kernels.  Both views describe
the same simulated pipeline, so for every registered controller the
summary-mode per-stage (count, total) must equal the aggregation of the
trace spans **bit-for-bit**: the kernels record the exact float
expressions the spans imply, and both sides sum left-to-right in arrival
order.

Also pinned here: attaching a stage accumulator, a tracer or a timeline
never knocks a kernel off the fused path (``batch.fallback.*`` stays
flat) and never perturbs the serialised :class:`SimulationReport`.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.obs.metrics import registry
from repro.obs.stages import StageAccumulator
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import Tracer
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name

CONTROLLERS = sorted(available_controllers())

#: Span names that are not pipeline stages: per-device NVM sub-spans
#: (emitted by the memory model, not the controller pipeline) and the
#: batch envelope.
EXCLUDED_PREFIXES = ("nvm.", "batch")


def single_stream_trace(app: str = "lbm", accesses: int = 500, seed: int = 9):
    trace = generate_trace(profile_by_name(app), accesses, seed=seed)
    assert trace.threads == 1
    return trace


def scalar_span_sums(name: str, trace) -> dict[str, tuple[int, float]]:
    tracer = Tracer(sink=None)
    controller = build_controller(name, NvmMainMemory(), tracer=tracer)
    simulate(controller, trace, batch_size=1024)
    return {
        stage: (len(durations), sum(durations))
        for stage, durations in tracer.stage_durations(clock="sim").items()
        if not stage.startswith(EXCLUDED_PREFIXES)
    }


def summary_mode_sums(name: str, trace) -> dict[str, tuple[int, float]]:
    accumulator = StageAccumulator()
    controller = build_controller(name, NvmMainMemory(), stages=accumulator)
    simulate(controller, trace, batch_size=1024)
    counts = accumulator.counts()
    totals = accumulator.totals()
    return {stage: (counts[stage], totals[stage]) for stage in accumulator.stage_names()}


def fallback_deltas(before: dict[str, float]) -> dict[str, float]:
    snapshot = registry()
    return {
        name: delta
        for name in snapshot.names()
        if name.startswith("batch.fallback.")
        and (delta := snapshot.get(name).value - before.get(name, 0.0))
    }


def fallback_snapshot() -> dict[str, float]:
    return {
        name: registry().get(name).value
        for name in registry().names()
        if name.startswith("batch.fallback.")
    }


class TestReconciliation:
    """Summary totals == grouped scalar span sums, exactly."""

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_core_trace_reconciles_bitwise(self, name):
        trace = single_stream_trace("lbm", 500, 9)
        assert summary_mode_sums(name, trace) == scalar_span_sums(name, trace)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_duplicate_heavy_trace_reconciles_bitwise(self, name):
        # sjeng's zero/duplicate-rich mix exercises the dedup hit/short-
        # circuit branches, whose stage expressions differ from the miss
        # paths (cache-hit spans of zero width, wasted-write crypto).
        trace = single_stream_trace("sjeng", 400, 11)
        assert summary_mode_sums(name, trace) == scalar_span_sums(name, trace)

    def test_stage_name_sets_match_scalar_path(self):
        # No phantom stages from unconditional columnar flushes: a stage
        # the scalar path never records must not appear in summary mode.
        trace = single_stream_trace("lbm", 500, 9)
        for name in CONTROLLERS:
            scalar = set(scalar_span_sums(name, trace))
            summary = set(summary_mode_sums(name, trace))
            assert summary == scalar, name


class TestFusedPathPreserved:
    def test_stages_cause_zero_fallbacks(self):
        trace = single_stream_trace()
        before = fallback_snapshot()
        for name in CONTROLLERS:
            controller = build_controller(
                name, NvmMainMemory(), stages=StageAccumulator()
            )
            simulate(controller, trace, batch_size=1024)
        assert fallback_deltas(before) == {}

    def test_report_byte_identical_with_stages_attached(self):
        trace = single_stream_trace()
        for name in CONTROLLERS:
            plain = simulate(build_controller(name, NvmMainMemory()), trace)
            staged = simulate(
                build_controller(name, NvmMainMemory(), stages=StageAccumulator()),
                trace,
            )
            assert json.dumps(staged.to_dict(), sort_keys=True) == json.dumps(
                plain.to_dict(), sort_keys=True
            ), name


class TestObservedKernelsStayFused:
    """A tracer or timeline on any controller rides its kernel."""

    @pytest.mark.parametrize("observer", ["tracer", "timeline"])
    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_observer_adds_no_fallback_and_keeps_the_report(self, name, observer):
        trace = single_stream_trace("sjeng", 400, 11)
        plain = simulate(build_controller(name, NvmMainMemory()), trace)
        attached = (
            {"tracer": Tracer(sink=None)}
            if observer == "tracer"
            else {"timeline": TimelineCollector()}
        )
        before = fallback_snapshot()
        observed = simulate(build_controller(name, NvmMainMemory(), **attached), trace)
        assert fallback_deltas(before) == {}
        assert json.dumps(observed.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )


class TestFallbackCounters:
    def test_multi_stream_fallback_counted(self):
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        before = fallback_snapshot()
        simulate(build_controller("dewrite", NvmMainMemory()), trace, batch_size=1024)
        deltas = fallback_deltas(before)
        assert set(deltas) == {"batch.fallback.multi_stream"}
        assert deltas["batch.fallback.multi_stream"] >= 1.0

    def test_scalar_driving_without_fused_kernel_not_counted(self):
        # One-request calls enter the kernel directly and are never
        # counted; only a merged multi-stream batch is.
        before = fallback_snapshot()
        simulate(
            build_controller("dewrite", NvmMainMemory()),
            single_stream_trace(),
            batch_size=None,
        )
        assert fallback_deltas(before) == {}
