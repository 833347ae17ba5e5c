"""Per-access vs batched equivalence — slicing must not change results.

Every registered controller must produce a byte-identical
:class:`~repro.system.metrics.SimulationReport` whether a trace is driven
one request at a time through ``write()``/``read()`` or through
``service_batch`` (at any batch size).  Both run the controller's one
kernel, so this pins that the kernel's float operation order does not
depend on where a batch ends; the comparison is on the full serialised
report — latencies, energy, wear, IPC — not on rounded values.  The
reference values themselves are pinned by
``tests/system/test_controller_goldens.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.core.registry import available_controllers, build_controller
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace

LINE = 256
CONTROLLERS = sorted(available_controllers())


def make_nvm(lines: int = 64 * 1024) -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=lines * LINE))
    )


def canonical(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def assert_equivalent(
    name: str, trace: Trace, batch_sizes=(1, 7, 1024), lines: int = 64 * 1024
) -> None:
    scalar = canonical(
        simulate(build_controller(name, make_nvm(lines)), trace, batch_size=None)
    )
    for size in batch_sizes:
        batched = canonical(
            simulate(build_controller(name, make_nvm(lines)), trace, batch_size=size)
        )
        assert batched == scalar, f"{name} batch_size={size} diverges from scalar"


def wr(address, core=0, gap=10, persistent=False, fill=1):
    return MemoryAccess(
        core=core,
        op="write",
        address=address,
        data=bytes([fill % 256]) * LINE,
        gap_instructions=gap,
        persistent=persistent,
    )


def rd(address, core=0, gap=10):
    return MemoryAccess(core=core, op="read", address=address, gap_instructions=gap)


class TestRandomTraces:
    """Property: byte-identical reports on generated traces."""

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_core_trace(self, name):
        # lbm is single-threaded, so the fused single-stream kernels engage.
        trace = generate_trace(profile_by_name("lbm"), 600, seed=3)
        assert_equivalent(name, trace)

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_duplicate_heavy_trace(self, name):
        # sjeng's zero/duplicate-rich mix exercises the dedup hit paths.
        trace = generate_trace(profile_by_name("sjeng"), 400, seed=11)
        assert_equivalent(name, trace, batch_sizes=(1, 64))


class TestEdgeCases:
    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_empty_trace(self, name):
        assert_equivalent(name, Trace("empty", []), batch_sizes=(1, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_single_access_trace(self, name):
        assert_equivalent(name, Trace("one", [wr(0, persistent=True)]), batch_sizes=(1, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_bank_conflict_burst(self, name):
        # Every access lands on bank 0: addresses stride by total_banks, so
        # the queueing/backlog arithmetic is exercised under contention.
        stride = make_nvm().config.organization.total_banks
        accesses = []
        for i in range(48):
            accesses.append(wr(i * stride, gap=1, persistent=i % 3 == 0, fill=i % 5))
            accesses.append(rd(i * stride, gap=1))
        assert_equivalent(name, Trace("conflict", accesses), batch_sizes=(1, 16, 1024))

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_multi_core_trace_falls_back(self, name):
        # canneal runs 4 threads; the kernels service one active stream,
        # so this exercises the multi-stream merge in service_batch.
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        assert_equivalent(name, trace, batch_sizes=(1, 64), lines=256 * 1024)
