"""History-window duplication predictor (paper §III-A, Fig. 4).

DeWrite keeps one tiny on-chip window holding the duplication states of the
most recent memory writes — 3 bits in the paper's configuration.  The next
write is predicted duplicate iff the majority of recorded states are
duplicate.  The paper measures ~92.1 % accuracy with a 1-bit window and
~93.6 % with 3 bits, exploiting the strong temporal locality of duplication
states (duplicate and non-duplicate writes arrive in runs).

The prediction steers two mechanisms:

- §III-A parallelism — predicted *non-duplicates* start AES encryption in
  parallel with detection; predicted *duplicates* skip encryption to save
  energy;
- §III-B2 PNA — on a hash-cache miss, only predicted *duplicates* pay the
  in-NVM hash-table query.

The window keeps a running count of its duplicate outcomes (``votes``), so a
prediction is one comparison rather than a sum over the window.  The DeWrite
kernel runs the same majority rule on hoisted copies of ``votes``,
``predictions`` and ``correct``, pushes outcomes onto ``history`` itself and
writes the counts back once per call; :meth:`predict`, :meth:`record` and
:meth:`observe` are the per-write API for everyone else.
"""

from __future__ import annotations

from collections import deque


class HistoryWindowPredictor:
    """Majority vote over the last ``window`` duplication outcomes."""

    def __init__(self, window: int = 3, initial: bool = False) -> None:
        """Create a predictor.

        Args:
            window: number of recent outcomes recorded (3 bits in the paper;
                1 gives the last-outcome predictor of Fig. 4's first series).
            initial: state the window is pre-filled with — ``False``
                (non-duplicate) matches a cold system where nothing is in
                memory to be duplicate of.
        """
        if window < 1:
            raise ValueError("window must hold at least one outcome")
        self.history: deque[bool] = deque([initial] * window, maxlen=window)
        self.votes = window if initial else 0  # duplicate outcomes in the window
        self.predictions = 0
        self.correct = 0

    @property
    def window(self) -> int:
        """Window length in bits."""
        return self.history.maxlen or 0

    def predict(self) -> bool:
        """Predict whether the next write is duplicate (majority vote).

        Ties (possible only with even windows) resolve to the most recent
        outcome, degenerating to the 1-bit predictor.
        """
        twice = self.votes * 2
        total = len(self.history)
        if twice == total:
            return self.history[-1]
        return twice > total

    def record(self, was_duplicate: bool) -> None:
        """Push the true outcome of the write that was just serviced."""
        history = self.history
        # The oldest outcome leaves the full window as the new one enters.
        self.votes += was_duplicate - history[0]
        history.append(was_duplicate)

    def observe(self, was_duplicate: bool) -> bool:
        """Predict, score the prediction, then record the truth.

        Returns the prediction.  This is the one-call-per-write entry point
        for callers outside the DeWrite kernel; accuracy statistics
        accumulate on the instance.
        """
        prediction = self.predict()
        self.predictions += 1
        if prediction == was_duplicate:
            self.correct += 1
        self.record(was_duplicate)
        return prediction

    @property
    def accuracy(self) -> float:
        """Fraction of scored predictions that matched the outcome."""
        return self.correct / self.predictions if self.predictions else 0.0
