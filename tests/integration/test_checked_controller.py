"""Run the full simulator under CheckedController for every controller.

This is the acceptance gate for the runtime invariant subsystem: each
controller in the repository services realistic traces while every
conservation law is re-verified after every request, and the wrapper is
proven transparent (identical reports with and without checking).
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.i_nvmm import INvmmController
from repro.core.registry import available_controllers, build_controller
from repro.baselines.out_of_line import OutOfLinePageDedupController
from repro.baselines.secure_nvm import TraditionalSecureNvmController
from repro.baselines.silent_shredder import SilentShredderController
from repro.baselines.traditional_dedup import traditional_dedup_controller
from repro.check.invariants import CheckedController, InvariantViolation
from repro.core.batching import BatchCursor
from repro.core.dewrite import DeWriteController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.system.cpu import CoreModelConfig
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.worstcase import worst_case_trace

LINE = 256
ACCESSES = 1_500


def make_nvm() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )


CONTROLLER_FACTORIES = [
    ("dewrite", lambda: DeWriteController(make_nvm())),
    ("dewrite-direct", lambda: DeWriteController(make_nvm(), mode="direct")),
    ("dewrite-parallel", lambda: DeWriteController(make_nvm(), mode="parallel")),
    ("traditional", lambda: TraditionalSecureNvmController(make_nvm())),
    ("shredder", lambda: SilentShredderController(make_nvm())),
    ("direct-way", lambda: build_controller("direct", make_nvm())),
    ("parallel-way", lambda: build_controller("parallel", make_nvm())),
    ("sha1-dedup", lambda: traditional_dedup_controller(make_nvm())),
    ("i-nvmm", lambda: INvmmController(make_nvm())),
    ("page-dedup", lambda: OutOfLinePageDedupController(make_nvm())),
]


@pytest.mark.parametrize("name,factory", CONTROLLER_FACTORIES)
class TestSimulatorSuiteUnderChecking:
    def test_application_trace(self, name, factory):
        trace = generate_trace(profile_by_name("mcf"), ACCESSES, seed=7)
        checked = CheckedController(factory(), deep_check_interval=128)
        simulate(checked, trace)
        checked.close(now_ns=10.0**12)
        assert checked.operations == ACCESSES
        assert checked.deep_checks >= ACCESSES // 128

    def test_worst_case_trace(self, name, factory):
        trace = worst_case_trace(num_accesses=600, seed=3)
        checked = CheckedController(factory(), deep_check_interval=64)
        simulate(checked, trace)
        checked.close(now_ns=10.0**12)


#: Every registered controller on four traces (canneal runs 4 threads, so
#: its requests go through the multi-stream merge); DeWrite's cases keep
#: their original bare-app ids.
CHECKED_IDENTITY_CASES = [
    pytest.param(name, app, id=app if name == "dewrite" else f"{name}-{app}")
    for name in sorted(available_controllers())
    for app in ("lbm", "mcf", "sjeng", "canneal")
]


@pytest.mark.parametrize("name,app", CHECKED_IDENTITY_CASES)
def test_checked_run_is_bit_identical_to_unchecked(name, app):
    # The default-size device: canneal's footprint overflows the small
    # one's data region under traditional dedup's larger metadata.
    trace = generate_trace(profile_by_name(app), ACCESSES, seed=11)
    plain_report = simulate(build_controller(name, NvmMainMemory()), trace)
    checked = CheckedController(build_controller(name, NvmMainMemory()), deep_check_interval=100)
    checked_report = simulate(checked, trace)

    # The report names the outermost class; everything simulated must match.
    plain, checked_payload = plain_report.to_dict(), checked_report.to_dict()
    assert checked_payload.pop("controller") == "CheckedController"
    plain.pop("controller")
    assert json.dumps(checked_payload, sort_keys=True) == json.dumps(plain, sort_keys=True)
    # The final sweep (incl. metadata flush) must still come up clean.
    checked.close(now_ns=10.0**12)


def test_seeded_violation_in_a_multi_stream_merge_is_caught():
    # The merge must hand each request to the wrapper's own kernel, which
    # checks it, never to the wrapped kernel the wrapper forwards to.
    trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
    batch = trace.as_batch()
    core = CoreModelConfig()
    cursor = BatchCursor(
        batch,
        ns_per_instruction=core.ns_per_instruction,
        read_stall_exposure=core.read_stall_exposure,
        clock_ghz=core.clock_ghz,
        base_cpi=core.base_cpi,
    )
    assert len(cursor.active) == 4
    inner = build_controller("dewrite", make_nvm())
    kernel = inner._service_stream

    def double_counting(batch, cursor, max_requests=None):
        result = kernel(batch, cursor, max_requests)
        inner.stats.writes_requested += result[2]
        return result

    inner._service_stream = double_counting
    checked = CheckedController(inner, deep_check_interval=0)
    with pytest.raises(InvariantViolation, match="writes_requested"):
        checked.service_batch(batch, cursor, max_requests=40)
    # Caught inside the merge: every stream was still active.
    assert len(cursor.active) == 4
