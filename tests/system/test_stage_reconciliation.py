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
never changes which device and metadata entry points a run calls, or how
often, and never perturbs the serialised :class:`SimulationReport`; a
wrapper (the invariant checker, the crash simulator) hands what is
attached to it to the kernel it wraps.  ``batch.fallback.multi_stream``
counts merged multi-stream kernel calls and stays flat on a single
stream.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.check.invariants import CheckedController
from repro.core.registry import available_controllers, build_controller
from repro.faults.crash import CrashSimulator
from repro.faults.plan import FaultPlan
from repro.nvm.memory import NvmMainMemory
from repro.nvm.wearlevel import StartGapConfig, WearLevelledNvm
from repro.obs.metrics import registry
from repro.obs.stages import NON_STAGE_SPANS, StageAccumulator
from repro.obs.timeline import TimelineCollector
from repro.obs.trace import Tracer
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name

CONTROLLERS = sorted(available_controllers())


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
        if not stage.startswith(NON_STAGE_SPANS)
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


#: Entry points whose call counts must not depend on what is attached.
COUNTED = {
    "nvm": ("read", "write", "read_complete_ns", "write_complete_ns"),
    "metadata": ("access", "replay"),
    "controller": ("_access_counter",),
}

OBSERVER_SETS = ("none", "tracer", "timeline", "stages", "all")


def observers_for(kind: str) -> dict:
    attached = {}
    if kind in ("tracer", "all"):
        attached["tracer"] = Tracer(sink=None)
    if kind in ("timeline", "all"):
        attached["timeline"] = TimelineCollector()
    if kind in ("stages", "all"):
        attached["stages"] = StageAccumulator()
    return attached


def count_calls(controller) -> Counter:
    """Wrap the COUNTED methods on the controller's instances; returns the
    live tally (a Start-Gap facade's wrapped device is counted too)."""
    calls: Counter = Counter()
    owners = {
        "nvm": controller.nvm,
        "device": getattr(controller.nvm, "_nvm", None),
        "metadata": getattr(controller, "metadata", None),
        "controller": controller,
    }
    for label, owner in owners.items():
        if owner is None:
            continue
        for method in COUNTED["nvm" if label == "device" else label]:
            bound = getattr(owner, method, None)
            if bound is None:
                continue

            def counted(*args, _bound=bound, _key=f"{label}.{method}", **kwargs):
                calls[_key] += 1
                return _bound(*args, **kwargs)

            setattr(owner, method, counted)
    return calls


def start_gap_dewrite(**attached):
    device = WearLevelledNvm(NvmMainMemory(), config=StartGapConfig(gap_interval=7))
    return build_controller("dewrite", device, **attached)


def plain_controller(name):
    return lambda **attached: build_controller(name, NvmMainMemory(), **attached)


BUILDS = {name: plain_controller(name) for name in CONTROLLERS}
BUILDS["dewrite+start-gap"] = start_gap_dewrite


class TestObservedKernelsStayFused:
    """A tracer or timeline on any controller rides its kernel, on one path."""

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

    # One body path: a tracer, a timeline or a stage accumulator, alone or
    # together, leaves every device and metadata call of a run as it is
    # with nothing attached; the bodies only feed the observers.
    @pytest.mark.parametrize("build", sorted(BUILDS))
    def test_calls_and_report_match_across_observers(self, build):
        trace = single_stream_trace("sjeng", 400, 11)
        calls = {}
        reports = {}
        for kind in OBSERVER_SETS:
            controller = BUILDS[build](**observers_for(kind))
            tally = count_calls(controller)
            report = simulate(controller, trace, batch_size=128)
            calls[kind] = dict(tally)
            reports[kind] = json.dumps(report.to_dict(), sort_keys=True)
        assert calls["none"], build
        for kind in OBSERVER_SETS[1:]:
            assert calls[kind] == calls["none"], (build, kind)
            assert reports[kind] == reports["none"], (build, kind)


#: Wrappers around a controller: each forwards what is attached to it.
WRAPPERS = {
    "checked": CheckedController,
    "crash": lambda inner: CrashSimulator(inner, FaultPlan()),
}


class TestWrappersForwardObservers:
    """A wrapped kernel feeds the observers attached to its wrapper."""

    @staticmethod
    def observe(name: str, wrap) -> tuple:
        tracer, timeline, stages = Tracer(sink=None), TimelineCollector(), StageAccumulator()
        controller = wrap(build_controller(name, NvmMainMemory()))
        controller.attach_observers(tracer=tracer, timeline=timeline, stages=stages)
        simulate(controller, trace_for("sjeng", 500, 1))
        spans = Counter(record["name"] for record in tracer.spans())
        return spans, timeline.to_dict(), stages.to_dict()

    @pytest.mark.parametrize("wrapper", sorted(WRAPPERS))
    @pytest.mark.parametrize("name", ["dewrite", "secure-nvm"])
    def test_wrapped_run_observes_what_the_bare_run_does(self, name, wrapper):
        bare = self.observe(name, lambda inner: inner)
        assert bare[2]["stages"] and "write" in bare[0]
        assert self.observe(name, WRAPPERS[wrapper]) == bare


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
