"""The overhead gate's summary-mode arm (``--with-stages``)."""

from __future__ import annotations

import pytest

from repro.obs.overhead import measure


class TestWithStages:
    def test_stages_and_timeline_arms_are_exclusive(self):
        with pytest.raises(ValueError, match="separate arms"):
            measure(with_stages=True, with_timeline=True)

    def test_staged_arm_measures_one_pair(self):
        # One pair at a small scale: the measurement's shape, not the
        # timing gate (CI runs the real budget).
        result = measure(accesses=300, repeats=1, with_stages=True)
        assert result["pairs"] == 1
        assert result["untraced_s"] > 0.0 and result["traced_s"] > 0.0

    def test_traced_and_timeline_arms_measure_both_modes(self):
        for result in (
            measure(accesses=200, repeats=1),
            measure(accesses=200, repeats=1, with_timeline=True),
        ):
            assert result["pairs"] == 1
            assert result["untraced_s"] > 0.0 and result["traced_s"] > 0.0


class TestWithEvents:
    def test_events_arm_is_exclusive_with_the_others(self):
        with pytest.raises(ValueError, match="separate arms"):
            measure(with_events=True, with_stages=True)
        with pytest.raises(ValueError, match="separate arms"):
            measure(with_events=True, with_timeline=True)

    def test_events_arm_streams_a_valid_schema(self):
        from repro.obs.events import read_events, validate_event

        result = measure(accesses=300, repeats=1, with_events=True)
        events = result["events"]
        assert events["dropped"] == 0
        assert events["emitted"] > 0
        records = list(read_events(events["path"]))
        assert len(records) == events["emitted"]
        for record in records:
            assert validate_event(record) == [], record
        # One run = started, per-run snapshot (with stages), finished.
        names = [record["event"] for record in records]
        assert names.count("started") == names.count("finished") == 1
        snapshots = [r for r in records if r["event"] == "snapshot"]
        assert snapshots and all("stages" in r for r in snapshots)
