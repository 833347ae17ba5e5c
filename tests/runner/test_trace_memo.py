"""The per-process trace memo behind :func:`repro.runner.jobs.trace_for`."""

from __future__ import annotations

import hashlib

import pytest

import repro.workloads.generator as generator
from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.runner.jobs import TRACE_MEMO_SIZE, execute_job, simulate_spec, trace_for
from repro.system.simulator import simulate
from repro.workloads.trace import Trace


def column_digest(trace: Trace) -> str:
    batch = trace.as_batch()
    columns = (batch.ops, batch.cores, batch.addresses, batch.gaps, batch.persistent)
    blob = b"|".join(bytes(column) for column in columns)
    return hashlib.sha256(blob + bytes(batch.slots) + batch.payload).hexdigest()


@pytest.fixture(autouse=True)
def _empty_memo():
    trace_for.cache_clear()
    yield
    trace_for.cache_clear()


@pytest.fixture
def generations(monkeypatch) -> list[tuple]:
    calls: list[tuple] = []
    real = generator.generate_trace

    def counting(profile, num_accesses, seed=0, line_size_bytes=256):
        calls.append((profile.name, num_accesses, seed))
        return real(profile, num_accesses, seed=seed, line_size_bytes=line_size_bytes)

    monkeypatch.setattr(generator, "generate_trace", counting)
    return calls


def test_jobs_on_one_workload_generate_its_trace_once(generations):
    for controller in ("secure-nvm", "dewrite"):
        payload = execute_job(
            simulate_spec(workload="bzip2", controller=controller, accesses=300, seed=1)
        )
        assert payload["simulations"] == 1
    assert generations == [("bzip2", 300, 1)]


def test_memo_stays_at_its_bound(generations):
    for seed in range(TRACE_MEMO_SIZE + 3):
        trace_for("lbm", 50, seed)
    assert trace_for.cache_info().currsize == TRACE_MEMO_SIZE
    assert len(generations) == TRACE_MEMO_SIZE + 3
    trace_for("lbm", 50, 0)  # the oldest entry was evicted
    assert len(generations) == TRACE_MEMO_SIZE + 4


def test_different_seeds_give_different_traces():
    first, second = trace_for("lbm", 300, 1), trace_for("lbm", 300, 2)
    assert first is not second
    assert column_digest(first) != column_digest(second)
    assert trace_for("lbm", 300, 1) is first


@pytest.mark.parametrize("workload", ["lbm", "worst-case"])
def test_simulating_every_controller_leaves_the_memoized_trace_intact(workload):
    trace = trace_for(workload, 400, 3)
    before = column_digest(trace)
    for name in sorted(available_controllers()):
        simulate(build_controller(name, NvmMainMemory()), trace)
    assert trace_for(workload, 400, 3) is trace
    assert column_digest(trace) == before
