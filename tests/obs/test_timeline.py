"""Windowed timeline collector: windowing, serde, merge, instrumentation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.timeline import (
    NULL_TIMELINE,
    NullTimeline,
    TimelineCollector,
    render_timeline,
    timeline_csv,
)


class TestNullTimeline:
    def test_disabled_and_inert(self):
        assert NULL_TIMELINE.enabled is False
        assert isinstance(NULL_TIMELINE, NullTimeline)
        # Every recorder is a no-op that accepts the full signature.
        NULL_TIMELINE.record_write(1.0, deduplicated=True, latency_ns=10.0)
        NULL_TIMELINE.record_read(1.0, latency_ns=10.0)
        NULL_TIMELINE.record_metadata(1.0, hit=False)
        NULL_TIMELINE.record_nvm_read(1.0, bank=0, wait_ns=0.0)
        NULL_TIMELINE.record_nvm_write(1.0, bank=0, wait_ns=0.0, bit_flips=3)


class TestWindowing:
    def test_samples_land_in_their_windows(self):
        tl = TimelineCollector(window_ns=100.0)
        tl.record_write(10.0, deduplicated=True, latency_ns=50.0)
        tl.record_write(99.0, deduplicated=False, latency_ns=150.0)
        tl.record_write(100.0, deduplicated=False, latency_ns=70.0)
        tl.record_read(250.0, latency_ns=40.0)
        assert tl.window_indices() == [0, 1, 2]
        assert tl.raw_window(0)["writes"] == 2
        assert tl.raw_window(0)["dedup_writes"] == 1
        assert tl.raw_window(0)["write_latency_ns"] == 200.0
        assert tl.raw_window(1)["writes"] == 1
        assert tl.raw_window(2)["reads"] == 1

    def test_rows_derive_rates(self):
        tl = TimelineCollector(window_ns=100.0)
        tl.record_write(0.0, deduplicated=True, latency_ns=100.0)
        tl.record_write(1.0, deduplicated=False, latency_ns=300.0)
        tl.record_metadata(2.0, hit=True)
        tl.record_metadata(3.0, hit=False)
        tl.record_nvm_write(4.0, bank=2, wait_ns=10.0, bit_flips=7)
        (row,) = tl.rows()
        assert row["window"] == 0
        assert row["writes"] == 2
        assert row["dedup_ratio"] == 0.5
        # 2 requested writes, 1 reached the array.
        assert row["write_reduction"] == 0.5
        assert row["meta_hit_rate"] == 0.5
        assert row["mean_write_ns"] == 200.0
        assert row["bit_flips"] == 7

    def test_empty_window_rates_are_zero(self):
        tl = TimelineCollector(window_ns=100.0)
        tl.record_nvm_read(5.0, bank=0, wait_ns=2.0)
        (row,) = tl.rows()
        assert row["dedup_ratio"] == 0.0
        assert row["write_reduction"] == 0.0
        assert row["meta_hit_rate"] == 0.0
        assert row["mean_bank_wait_ns"] == 2.0

    def test_per_bank_accounting(self):
        tl = TimelineCollector(window_ns=100.0)
        tl.record_nvm_read(0.0, bank=3, wait_ns=5.0)
        tl.record_nvm_write(1.0, bank=3, wait_ns=7.0, bit_flips=1)
        tl.record_nvm_write(2.0, bank=0, wait_ns=0.0, bit_flips=1)
        window = tl.raw_window(0)
        assert window["bank_accesses"] == {3: 2, 0: 1}
        assert window["bank_wait_by_bank_ns"][3] == 12.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            TimelineCollector(window_ns=0.0)
        with pytest.raises(ValueError):
            TimelineCollector(max_windows=0)


class TestRingEviction:
    def test_oldest_window_evicted_past_capacity(self):
        tl = TimelineCollector(window_ns=10.0, max_windows=2)
        for t in (5.0, 15.0, 25.0):
            tl.record_read(t, latency_ns=1.0)
        assert tl.window_indices() == [1, 2]
        assert tl.evicted_windows == 1

    def test_out_of_order_sample_older_than_all_is_dropped(self):
        tl = TimelineCollector(window_ns=10.0, max_windows=2)
        tl.record_read(105.0, latency_ns=1.0)
        tl.record_read(115.0, latency_ns=1.0)
        # Window 0 is older than both retained windows: it is created and
        # immediately evicted, leaving the retained set untouched.
        tl.record_read(5.0, latency_ns=1.0)
        assert tl.window_indices() == [10, 11]
        assert tl.evicted_windows == 1
        # The collector still records correctly afterwards.
        tl.record_read(116.0, latency_ns=1.0)
        assert tl.raw_window(11)["reads"] == 2


class TestSerde:
    def _sample(self) -> TimelineCollector:
        tl = TimelineCollector(window_ns=50.0, max_windows=16)
        tl.record_write(0.0, deduplicated=True, latency_ns=100.0)
        tl.record_read(60.0, latency_ns=40.0)
        tl.record_metadata(61.0, hit=True)
        tl.record_nvm_write(120.0, bank=5, wait_ns=3.5, bit_flips=11)
        return tl

    def test_round_trip_is_lossless(self):
        tl = self._sample()
        clone = TimelineCollector.from_dict(tl.to_dict())
        assert clone.to_dict() == tl.to_dict()
        assert clone.window_ns == tl.window_ns
        assert clone.totals() == tl.totals()

    def test_to_dict_is_json_shaped(self):
        import json

        payload = self._sample().to_dict()
        assert json.loads(json.dumps(payload)) == payload
        # Bank keys serialise as strings and restore as ints.
        assert "5" in payload["windows"]["2"]["bank_accesses"]

    def test_unknown_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            TimelineCollector.from_dict({"schema": 99, "window_ns": 1.0})

    def test_merge_window_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="window widths"):
            TimelineCollector(window_ns=10.0).merge(TimelineCollector(window_ns=20.0))


class TestMerge:
    def test_merge_sums_windows_and_banks(self):
        a = TimelineCollector(window_ns=10.0)
        b = TimelineCollector(window_ns=10.0)
        a.record_nvm_write(5.0, bank=1, wait_ns=2.0, bit_flips=3)
        b.record_nvm_write(6.0, bank=1, wait_ns=4.0, bit_flips=5)
        b.record_nvm_write(15.0, bank=2, wait_ns=1.0, bit_flips=1)
        a.merge(b)
        assert a.raw_window(0)["bit_flips"] == 8
        assert a.raw_window(0)["bank_wait_by_bank_ns"][1] == 6.0
        assert a.raw_window(1)["nvm_writes"] == 1

    def test_merge_accepts_dict_shards(self):
        a = TimelineCollector(window_ns=10.0)
        b = TimelineCollector(window_ns=10.0)
        b.record_read(1.0, latency_ns=9.0)
        a.merge(b.to_dict())
        assert a.totals()["reads"] == 1

    def test_merge_enforces_ring_capacity(self):
        a = TimelineCollector(window_ns=10.0, max_windows=2)
        b = TimelineCollector(window_ns=10.0)
        for t in (5.0, 15.0, 25.0, 35.0):
            b.record_read(t, latency_ns=1.0)
        a.merge(b)
        assert a.window_indices() == [2, 3]
        assert a.evicted_windows == 2

    @settings(max_examples=50, deadline=None)
    @given(
        samples=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.integers(min_value=0, max_value=7),
                st.integers(min_value=0, max_value=64),
            ),
            max_size=60,
        ),
        cut=st.integers(min_value=0, max_value=60),
    )
    def test_merged_shards_equal_single_process_collection(self, samples, cut):
        # The parallel-run contract (mirrors the histogram merge property):
        # splitting a sample stream across worker shards and merging their
        # snapshots must equal collecting everything in one process.
        cut = min(cut, len(samples))
        single = TimelineCollector(window_ns=100.0)
        shard_a = TimelineCollector(window_ns=100.0)
        shard_b = TimelineCollector(window_ns=100.0)
        for index, (t, bank, flips) in enumerate(samples):
            single.record_nvm_write(t, bank=bank, wait_ns=t / 2, bit_flips=flips)
            shard = shard_a if index < cut else shard_b
            shard.record_nvm_write(t, bank=bank, wait_ns=t / 2, bit_flips=flips)
        merged = TimelineCollector(window_ns=100.0)
        merged.merge(shard_a.to_dict())
        merged.merge(shard_b.to_dict())
        assert merged.window_indices() == single.window_indices()
        for index in single.window_indices():
            ours, theirs = merged.raw_window(index), single.raw_window(index)
            for field in ("nvm_writes", "bit_flips", "bank_accesses"):
                assert ours[field] == theirs[field]
            assert ours["bank_wait_ns"] == pytest.approx(theirs["bank_wait_ns"])


class TestRendering:
    def test_render_and_csv(self):
        tl = TimelineCollector(window_ns=100.0)
        tl.record_write(0.0, deduplicated=True, latency_ns=100.0)
        tl.record_write(150.0, deduplicated=False, latency_ns=100.0)
        text = render_timeline(tl)
        assert "window" in text and "dup%" in text
        assert len(text.splitlines()) == 3
        csv = timeline_csv(tl)
        lines = csv.strip().splitlines()
        assert lines[0].startswith("window,start_ns,writes")
        assert len(lines) == 3

    def test_render_caps_rows(self):
        tl = TimelineCollector(window_ns=10.0)
        for i in range(10):
            tl.record_read(i * 10.0, latency_ns=1.0)
        text = render_timeline(tl, max_rows=4)
        assert "and 6 more windows" in text


class TestEndToEnd:
    def test_dewrite_simulation_populates_timeline(self):
        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.runner.jobs import trace_for
        from repro.system.simulator import simulate

        timeline = TimelineCollector(window_ns=10_000.0)
        controller = build_controller("dewrite", NvmMainMemory(), timeline=timeline)
        trace = trace_for("lbm", 1500, 1)
        simulate(controller, trace)

        totals = timeline.totals()
        stats = controller.stats
        assert totals["writes"] == stats.writes_requested
        assert totals["reads"] == stats.reads_requested
        assert totals["dedup_writes"] == stats.writes_deduplicated
        # Device traffic and metadata samples flow through the same object.
        assert totals["nvm_writes"] > 0
        assert totals["meta_accesses"] > 0
        assert totals["bit_flips"] > 0

    def test_attach_timeline_reaches_all_layers(self):
        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory

        timeline = TimelineCollector()
        nvm = NvmMainMemory()
        controller = build_controller("dewrite", nvm)
        assert controller.timeline is NULL_TIMELINE
        controller.attach_observers(timeline=timeline)
        assert controller.timeline is timeline
        assert nvm.timeline is timeline
        assert controller.metadata.timeline is timeline

    def test_baseline_controller_records_too(self):
        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.runner.jobs import trace_for
        from repro.system.simulator import simulate

        timeline = TimelineCollector(window_ns=10_000.0)
        controller = build_controller(
            "secure-nvm", NvmMainMemory(), timeline=timeline
        )
        simulate(controller, trace_for("mcf", 800, 1))
        totals = timeline.totals()
        assert totals["writes"] > 0
        assert totals["dedup_writes"] == 0  # the baseline never deduplicates
        assert totals["nvm_writes"] >= totals["writes"]

    @pytest.mark.parametrize("app", ["sjeng", "canneal"])
    def test_every_controller_records_every_request(self, app):
        # Every pipeline arm records: Silent Shredder's zero writes and
        # shredded reads, i-NVMM's hot lines, DeWrite's eliminated writes.
        from repro.core.registry import available_controllers, build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.runner.jobs import trace_for
        from repro.system.simulator import simulate

        trace = trace_for(app, 3000, 1)
        for name in available_controllers():
            timeline = TimelineCollector(window_ns=10_000.0)
            controller = build_controller(name, NvmMainMemory(), timeline=timeline)
            simulate(controller, trace)
            totals = timeline.totals()
            stats = controller.stats
            assert totals["writes"] == stats.writes_requested, name
            assert totals["reads"] == stats.reads_requested, name
            assert totals["dedup_writes"] == stats.writes_deduplicated, name
