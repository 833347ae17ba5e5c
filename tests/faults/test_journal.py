"""Durability journal: event vocabulary and replay semantics."""

from __future__ import annotations

import pytest

from repro.faults.journal import (
    UPDATE_KINDS,
    DurabilityJournal,
    DurableState,
    MetadataUpdate,
    replay,
)


def ev(kind: str, key: int, value: int | None = None, ns: float = 0.0) -> MetadataUpdate:
    return MetadataUpdate(ns=ns, kind=kind, key=key, value=value)


class TestMetadataUpdate:
    def test_known_kinds(self):
        assert UPDATE_KINDS == ("map", "ctr", "stored", "free", "shred", "plain")
        for kind in UPDATE_KINDS:
            ev(kind, 1, 2)  # constructs without error

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            ev("teleport", 1)


class TestReplaySemantics:
    def test_map_sets_mapping_and_clears_line_states(self):
        state = replay([ev("shred", 5), ev("plain", 5), ev("map", 5, 9)])
        assert state.mapping == {5: 9}
        assert 5 not in state.shredded
        assert 5 not in state.plaintext

    def test_map_requires_value(self):
        with pytest.raises(ValueError):
            replay([ev("map", 5)])

    def test_ctr_sets_counter_and_clears_plaintext(self):
        state = replay([ev("plain", 3), ev("ctr", 3, 7)])
        assert state.counters == {3: 7}
        assert 3 not in state.plaintext

    def test_ctr_requires_value(self):
        with pytest.raises(ValueError):
            replay([ev("ctr", 3)])

    def test_stored_and_free(self):
        state = replay([ev("stored", 4, 0xBEEF), ev("free", 4)])
        assert state.stored == {}
        # Freeing a never-stored line is a no-op, not an error.
        replay([ev("free", 99)])

    def test_stored_requires_value(self):
        with pytest.raises(ValueError):
            replay([ev("stored", 4)])

    def test_shred_marks_and_unmaps(self):
        state = replay([ev("map", 2, 8), ev("shred", 2)])
        assert 2 in state.shredded
        assert 2 not in state.mapping

    def test_plain_sets_identity_mapping_and_drops_counter(self):
        state = replay([ev("ctr", 6, 3), ev("shred", 6), ev("plain", 6)])
        assert state.mapping == {6: 6}
        assert 6 not in state.counters
        assert 6 not in state.shredded
        assert 6 in state.plaintext

    def test_unknown_kind_rejected_by_the_fold(self):
        # Journal events are plain tuples, so the fold itself must refuse a
        # kind it does not know instead of treating it as "plain".
        with pytest.raises(ValueError, match="bogus"):
            replay([(0.0, "bogus", 1, None)])
        state = DurableState()
        with pytest.raises(ValueError, match="bogus"):
            state.apply((0.0, "bogus", 1, None))
        assert state == DurableState()

    def test_plain_tuples_fold_like_updates(self):
        events = [ev("map", 1, 10), ev("ctr", 10, 3), ev("plain", 2), ev("shred", 1)]
        assert replay([tuple(e) for e in events]) == replay(events)

    def test_later_events_win(self):
        state = replay([ev("map", 1, 10), ev("map", 1, 20), ev("ctr", 10, 1),
                        ev("ctr", 10, 2)])
        assert state.mapping == {1: 20}
        assert state.counters == {10: 2}


class TestDurabilityJournal:
    def test_record_extend_and_order(self):
        journal = DurabilityJournal()
        journal.record(ev("map", 1, 2, ns=10.0))
        journal.extend([ev("ctr", 2, 1, ns=10.0), ev("stored", 2, 99, ns=10.0)])
        events = journal.events()
        assert len(journal) == 3
        assert [e.kind for e in events] == ["map", "ctr", "stored"]

    def test_live_state_folds_every_extend(self):
        journal = DurabilityJournal()
        journal.extend([(10.0, "map", 1, 2), (10.0, "ctr", 2, 1)])
        journal.record((30.0, "plain", 4, None))
        journal.extend([(20.0, "stored", 2, 99)])
        journal.extend([])
        assert journal.state == replay(journal.events())
        assert journal.latest_ns == 30.0
        assert all(type(e) is MetadataUpdate for e in journal.events())

    def test_prefix_replay_differs_from_full_replay(self):
        # The crash model's core operation: replay a horizon prefix vs the
        # full journal and compare.
        journal = DurabilityJournal()
        journal.extend([ev("map", 1, 10, ns=100.0), ev("map", 1, 20, ns=900.0)])
        durable = replay([e for e in journal.events() if e.ns <= 500.0])
        at_crash = replay(journal.events())
        assert durable.mapping == {1: 10}
        assert at_crash.mapping == {1: 20}
