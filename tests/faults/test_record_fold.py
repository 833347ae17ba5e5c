"""The crash wrapper folds each controller's request record.

Without a sim-time trigger, :class:`~repro.faults.crash.CrashSimulator`
hands a whole crash segment to the wrapped kernel in one call and folds the
rows it recorded; with one armed, it steps a request at a time.  Both
strides must journal, observe and clock exactly the same run, and the
journal, replayed in full, must rebuild the live metadata.
"""

from __future__ import annotations

import pytest

from repro.baselines.secure_nvm import TraditionalSecureNvmController
from repro.core.registry import available_controllers, build_controller
from repro.faults.adapters import UnsupportedControllerError
from repro.faults.crash import CrashRun
from repro.faults.journal import replay
from repro.faults.plan import FaultPlan
from repro.nvm.memory import NvmMainMemory
from repro.runner.jobs import trace_for

ACCESSES = 400

#: A sim-time trigger armed past the end of every trace here: the run
#: steps a request at a time but never loses power.
LATE_LOSS = FaultPlan(power_loss_ns=1e18)

#: A hot set small enough that i-NVMM writes evict (and re-encrypt) lines.
OPTS = {"i-nvmm": {"hot_set_lines": 16}}


def crash_run(name: str, app: str, plan: FaultPlan, accesses: int = ACCESSES) -> CrashRun:
    controller = build_controller(name, NvmMainMemory(), **OPTS.get(name, {}))
    return CrashRun(controller, trace_for(app, accesses, 1), plan)


def drive(run: CrashRun, *segments: int | None) -> dict:
    """Service the run in ``segments`` (ordinal-style batch splits)."""
    wrapper = run.wrapper
    for segment in segments:
        wrapper.service_batch(run.batch, run.cursor, max_requests=segment)
    oracle = wrapper.oracle
    return {
        "journal": wrapper.journal.events(),
        "oracle": {line: oracle.expected(line) for line in oracle.written_addresses()},
        "last_complete_ns": wrapper.last_complete_ns,
        "accesses": wrapper.accesses,
        "done": run.cursor.done,
    }


@pytest.mark.parametrize("app", ["lbm", "canneal"])
@pytest.mark.parametrize("name", sorted(available_controllers()))
def test_segment_and_step_strides_agree(name, app):
    stepped = drive(crash_run(name, app, LATE_LOSS), None)
    segmented = drive(crash_run(name, app, FaultPlan()), 137, None)
    assert stepped["done"] and segmented["done"]
    assert stepped["accesses"] == ACCESSES
    assert len(stepped["journal"]) > 0
    assert segmented == stepped


@pytest.mark.parametrize("name", sorted(available_controllers()))
def test_full_journal_replay_rebuilds_live_metadata(name):
    # bzip2 writes zero lines (shreds) and, over 2,000 accesses, releases
    # the last reference to a few stored lines (frees).
    run = crash_run(name, "bzip2", FaultPlan(), accesses=2000)
    drive(run, None)
    image = replay(run.wrapper.journal.events())
    controller = run.wrapper.inner
    index = getattr(controller, "index", None)
    if index is not None:
        assert image.mapping == index._mapping
        assert image.stored == index._stored
        assert image.counters == dict(index.counter_items())
    else:
        assert image.counters == controller._counters
        assert image.shredded == getattr(controller, "_shredded", set())
        assert image.plaintext == set(getattr(controller, "_hot", ()))


class SilentKernel(TraditionalSecureNvmController):
    """Services requests but never writes the request record."""

    def _service_stream(self, batch, cursor, max_requests=None):
        record, self.request_record = self.request_record, None
        try:
            return super()._service_stream(batch, cursor, max_requests)
        finally:
            self.request_record = record


@pytest.mark.parametrize("plan", [FaultPlan(), LATE_LOSS], ids=["segment", "step"])
def test_kernel_that_records_nothing_is_rejected(plan):
    run = CrashRun(SilentKernel(NvmMainMemory()), trace_for("lbm", 50, 1), plan)
    with pytest.raises(UnsupportedControllerError, match="recorded 0"):
        run.wrapper.service_batch(run.batch, run.cursor)
    # Nothing of the unrecorded run reached the journal or the oracle.
    assert len(run.wrapper.journal) == 0
    assert run.wrapper.oracle.written_addresses() == ()
    assert run.wrapper.accesses == 0
