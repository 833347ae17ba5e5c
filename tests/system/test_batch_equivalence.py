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
from hypothesis import given, settings, strategies as st

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
        # canneal runs 4 threads, so every batch is one the kernel merged
        # (still counted in batch.fallback.multi_stream; the id is kept).
        trace = generate_trace(profile_by_name("canneal"), 400, seed=7)
        assert trace.threads > 1
        assert_equivalent(name, trace, batch_sizes=(1, 64), lines=256 * 1024)


def tie_trace() -> Trace:
    """Four streams whose merge leans on the tie-break.

    The cores' first appearance makes their set iterate as 8, 0, 3, 16
    (not ascending, not trace order).  The first 40 rounds are posted
    writes with equal gaps, so every round's arrivals tie exactly across
    all live cores; core 3 drains after 20 rounds.  Each round writes one
    address from every core, so the order of the tied writes decides the
    line's final content.  The last 40 rounds add reads and persistent
    writes, which move the core clocks apart, on bank-colliding addresses.
    """
    cores = (8, 0, 16, 3)
    stride = make_nvm().config.organization.total_banks
    accesses = []
    for step in range(80):
        for core in cores:
            if core == 3 and step >= 20:
                continue
            fill = (core + step) % 5
            if step < 40:
                accesses.append(wr(step % 16, core=core, gap=4, fill=fill))
            elif step % 3 == 0:
                accesses.append(rd((step % 6) * stride, core=core, gap=2))
            else:
                accesses.append(
                    wr((step % 6) * stride, core=core, gap=2, persistent=step % 5 == 0, fill=fill)
                )
    return Trace("ties", accesses)


class TestStreamMergeTieBreak:
    """The batched merge issues tied arrivals in the scalar loop's order."""

    def test_trace_exercises_the_tie_break(self):
        trace = tie_trace()
        cores = list({access.core: None for access in trace})
        assert list({core for core in cores}) == [8, 0, 3, 16]

    @pytest.mark.parametrize("name", CONTROLLERS)
    def test_tied_arrivals_merge_as_the_scalar_loop(self, name):
        assert_equivalent(name, tie_trace(), batch_sizes=(1, 2, 3, 1024))


@st.composite
def multi_stream_traces(draw) -> Trace:
    """2-5 streams with gaps of 0-3 instructions (so arrivals often tie),
    random persistence and a handful of repeated line contents, on eight
    addresses of which four share a bank."""
    cores = draw(st.lists(st.integers(0, 63), min_size=2, max_size=5, unique=True))
    stride = make_nvm().config.organization.total_banks
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(cores),
                st.booleans(),
                st.integers(0, 7),
                st.integers(0, 3),
                st.booleans(),
                st.integers(0, 3),
            ),
            min_size=len(cores),
            max_size=40,
        )
    )
    accesses = []
    for i, (core, write, slot, gap, persistent, fill) in enumerate(rows):
        if i < len(cores):
            core = cores[i]  # every drawn core issues, in drawn order
        address = (slot % 4) * stride + slot // 4
        if write:
            accesses.append(wr(address, core=core, gap=gap, persistent=persistent, fill=fill))
        else:
            accesses.append(rd(address, core=core, gap=gap))
    return Trace("fuzz", accesses)


class TestDifferentialMerge:
    """Property: on random multi-stream traces, a batched run at any batch
    size is byte-identical to the scalar run, for every controller."""

    @pytest.mark.parametrize("name", CONTROLLERS)
    @settings(max_examples=25, deadline=None)
    @given(trace=multi_stream_traces(), batch_size=st.integers(1, 64))
    def test_batched_run_matches_scalar(self, name, trace, batch_size):
        assert_equivalent(name, trace, batch_sizes=(batch_size,))
