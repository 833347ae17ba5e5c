"""History-window predictor: majority voting, accuracy accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from repro.core.predictor import HistoryWindowPredictor


class TestPredictionRule:
    def test_cold_predictor_says_non_duplicate(self):
        assert HistoryWindowPredictor(window=3).predict() is False

    def test_single_bit_window_tracks_last_outcome(self):
        predictor = HistoryWindowPredictor(window=1)
        predictor.record(True)
        assert predictor.predict() is True
        predictor.record(False)
        assert predictor.predict() is False

    def test_majority_of_three(self):
        predictor = HistoryWindowPredictor(window=3)
        for outcome in (True, True, False):
            predictor.record(outcome)
        assert predictor.predict() is True
        predictor.record(False)  # history now T, F, F
        assert predictor.predict() is False

    def test_even_window_tie_resolves_to_most_recent(self):
        predictor = HistoryWindowPredictor(window=2)
        predictor.record(True)
        predictor.record(False)  # one vote each
        assert predictor.predict() is False
        predictor.record(True)
        predictor.record(False)
        assert predictor.predict() is False

    def test_window_length_exposed(self):
        assert HistoryWindowPredictor(window=5).window == 5

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            HistoryWindowPredictor(window=0)

    def test_initial_state_configurable(self):
        assert HistoryWindowPredictor(window=3, initial=True).predict() is True


class TestAccuracyAccounting:
    def test_observe_scores_and_records(self):
        predictor = HistoryWindowPredictor(window=1)
        predictor.observe(False)  # cold prediction False, outcome False: hit
        predictor.observe(False)  # hit
        predictor.observe(True)  # predicted False, outcome True: miss
        assert predictor.predictions == 3
        assert predictor.correct == 2
        assert predictor.accuracy == pytest.approx(2 / 3)

    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_running_vote_count_matches_window(self, window):
        rng = random.Random(window)
        predictor = HistoryWindowPredictor(window=window, initial=window % 2 == 0)
        for _ in range(200):
            history = list(predictor.history)
            votes = sum(history)
            assert predictor.votes == votes
            # The majority rule over the whole window; ties go to the latest.
            expected = history[-1] if 2 * votes == window else 2 * votes > window
            assert predictor.observe(rng.random() < 0.5) == expected

    def test_accuracy_empty(self):
        assert HistoryWindowPredictor().accuracy == 0.0


class TestStatisticalBehaviour:
    def test_perfectly_persistent_stream_is_perfect_after_warmup(self):
        predictor = HistoryWindowPredictor(window=3)
        for _ in range(3):
            predictor.record(True)
        for _ in range(100):
            assert predictor.observe(True)
        assert predictor.accuracy == 1.0

    def test_alternating_stream_defeats_last_value(self):
        predictor = HistoryWindowPredictor(window=1)
        for i in range(100):
            predictor.observe(i % 2 == 0)
        assert predictor.accuracy < 0.1

    def test_majority_window_beats_last_value_on_blippy_stream(self):
        # Long runs with isolated blips: the paper's Fig. 4 structure.
        rng = random.Random(5)
        stream = []
        state = True
        for _ in range(4000):
            if rng.random() < 0.02:
                state = not state
            if rng.random() < 0.06:
                stream.append(not state)  # isolated blip
            else:
                stream.append(state)
        one = HistoryWindowPredictor(window=1)
        three = HistoryWindowPredictor(window=3)
        for outcome in stream:
            one.observe(outcome)
            three.observe(outcome)
        assert three.accuracy > one.accuracy

    @given(st.lists(st.booleans(), min_size=1, max_size=200))
    def test_accuracy_always_in_unit_interval(self, outcomes):
        predictor = HistoryWindowPredictor(window=3)
        for outcome in outcomes:
            predictor.observe(outcome)
        assert 0.0 <= predictor.accuracy <= 1.0
        assert predictor.predictions == len(outcomes)
