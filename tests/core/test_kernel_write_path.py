"""The CME kernels' unique-write path, checked against its slow references.

The kernels seal each unique line in the integer domain, keep OTP-reuse
tracking, run the history-window majority rule on hoisted locals and record
counter touches with the §III-C slot rule inlined.  Each test here pins one
of those against the code it replaced: a tracked engine that must still
raise through every kernel, a :class:`HistoryWindowPredictor` replay of the
same outcomes, and :meth:`DedupIndex.counter_slot`.  The last pins the
shared pad memo: a DeWrite run after the baseline's makes no pad.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.baselines.secure_nvm import TraditionalSecureNvmController
from repro.baselines.silent_shredder import SilentShredderController
from repro.core.config import DeWriteConfig
from repro.core.dewrite import DeWriteController
from repro.core.predictor import HistoryWindowPredictor
from repro.core.tables import WRITE, DedupIndex
from repro.crypto.counter_mode import CounterModeEngine, OtpReuseError
from repro.crypto.otp import ShakePadGenerator
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.trace import Tracer
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.trace import MemoryAccess, Trace
from repro.workloads.worstcase import worst_case_trace

LINE = 256
CME_KERNELS = {
    "dewrite": DeWriteController,
    "secure-nvm": TraditionalSecureNvmController,
    "silent-shredder": SilentShredderController,
}


def make_nvm() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )


def report_json(controller, trace) -> str:
    return json.dumps(simulate(controller, trace, batch_size=64).to_dict(), sort_keys=True)


class TestOtpTrackingThroughKernels:
    @pytest.mark.parametrize("name", sorted(CME_KERNELS))
    def test_bzip2_trace_runs_clean_and_unchanged(self, name):
        trace = generate_trace(profile_by_name("bzip2"), 1_500, seed=1)
        cls = CME_KERNELS[name]
        tracked = cls(make_nvm(), cme=CounterModeEngine(track_otp_reuse=True))
        assert report_json(tracked, trace) == report_json(cls(make_nvm()), trace)

    def test_forced_reuse_raises_through_dewrite_kernel(self):
        controller = DeWriteController(make_nvm(), cme=CounterModeEngine(track_otp_reuse=True))
        controller.write(3, b"\x01" * LINE, 0.0)
        physical = controller.index.physical_of(3)
        controller.index._counters[physical] -= 1  # roll the counter back
        with pytest.raises(OtpReuseError):
            controller.write(3, b"\x02" * LINE, 1_000.0)

    @pytest.mark.parametrize("name", ["secure-nvm", "silent-shredder"])
    def test_forced_reuse_raises_through_secure_kernels(self, name):
        controller = CME_KERNELS[name](make_nvm(), cme=CounterModeEngine(track_otp_reuse=True))
        controller.write(3, b"\x01" * LINE, 0.0)
        controller._counters[3] -= 1  # roll the counter back
        with pytest.raises(OtpReuseError):
            controller.write(3, b"\x02" * LINE, 1_000.0)


def bursty_trace(seed: int, writes: int = 600) -> Trace:
    """Writes in runs of duplicates and runs of fresh lines, with reads."""
    rng = random.Random(seed)
    accesses = []
    duplicate_run = False
    for _ in range(writes):
        if rng.random() < 0.2:
            duplicate_run = not duplicate_run
        if duplicate_run:
            data = bytes([rng.randrange(1, 4)]) * LINE
        else:
            data = rng.randbytes(LINE)
        address = rng.randrange(2_000)
        accesses.append(
            MemoryAccess(core=0, op="write", address=address, data=data, gap_instructions=20)
        )
        if rng.random() < 0.3:
            accesses.append(
                MemoryAccess(core=0, op="read", address=address, gap_instructions=20)
            )
    return Trace("bursty", accesses)


class TestPredictorInKernel:
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_kernel_scores_match_observe_replay(self, window):
        controller = DeWriteController(make_nvm(), config=DeWriteConfig(history_window=window))
        # Each write's outcome, from its span: a first-mapping duplicate
        # never calls the index's apply_duplicate.
        tracer = Tracer()
        controller.attach_observers(tracer=tracer)
        # Small batches: the hoisted vote count is written back and
        # re-read on every kernel call.
        simulate(controller, bursty_trace(window), batch_size=7)
        outcomes = [span["attrs"]["deduplicated"] for span in tracer.spans("write")]
        assert len(outcomes) == controller.stats.writes_requested

        replay = HistoryWindowPredictor(window=window)
        for outcome in outcomes:
            replay.observe(outcome)
        assert True in outcomes and False in outcomes
        stats = controller.stats
        assert (stats.predictions, stats.correct_predictions) == (
            replay.predictions,
            replay.correct,
        )
        predictor = controller.predictor
        assert (predictor.predictions, predictor.correct) == (replay.predictions, replay.correct)
        assert list(predictor.history) == list(replay.history)
        assert predictor.votes == replay.votes == sum(replay.history)


class TestCounterTouchSlot:
    """``bump_counter`` charges the slot ``counter_slot`` names (§III-C)."""

    @staticmethod
    def assert_touch_matches_slot(index: DedupIndex, physical: int, slot: str) -> None:
        assert index.counter_slot(physical) == slot
        touches: list = []
        index.bump_counter(physical, touches)
        # The overflow store is charged as an address-map touch.
        expected = "address_map" if slot == "overflow" else slot
        assert touches == [expected, physical, WRITE]

    def test_own_slot_freed_line_and_overflow(self):
        index = DedupIndex(total_lines=64)
        touches: list = []
        assert index.apply_unique(5, 0xA, touches) == 5
        assert index.apply_unique(6, 0xB, touches) == 6
        # Own slot: logical 5 is not deduplicated.
        self.assert_touch_matches_slot(index, 5, "address_map")
        # Freed line: logical 5 now maps to 6, and physical 5 holds nothing.
        index.apply_duplicate(5, 6, touches)
        self.assert_touch_matches_slot(index, 5, "inverted_hash")
        # Overflow: logical 6 gets new content while its own slot is still
        # referenced by logical 5, so it is relocated into freed line 5.
        assert index.apply_unique(6, 0xC, touches) == 5
        self.assert_touch_matches_slot(index, 5, "overflow")


class TestPadsMadeOncePerProcess:
    def test_dewrite_after_secure_nvm_makes_no_pad(self, monkeypatch):
        # Both controllers seal every worst-case write under the same
        # (address, counter) pairs; the shared pad memo hands DeWrite the
        # baseline's pads.
        trace = worst_case_trace(num_accesses=3_000, seed=1)
        CounterModeEngine()._memo(LINE).clear()
        simulate(TraditionalSecureNvmController(NvmMainMemory()), trace)
        calls = []
        real = ShakePadGenerator.pad_int

        def counted(self, address, counter, length):
            calls.append((address, counter, length))
            return real(self, address, counter, length)

        monkeypatch.setattr(ShakePadGenerator, "pad_int", counted)
        dewrite = DeWriteController(NvmMainMemory())
        simulate(dewrite, trace)
        assert dewrite.stats.writes_stored > 1_000
        assert calls == []
