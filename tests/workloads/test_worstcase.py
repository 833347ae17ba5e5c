"""Worst-case benchmark: truly zero duplicate writes (Fig. 18's input)."""

from __future__ import annotations

import pytest

from repro.workloads.oracle import DedupOracle
from repro.workloads.worstcase import worst_case_trace


class TestWorstCase:
    def test_no_duplicates_at_all(self):
        trace = worst_case_trace(num_accesses=3_000, seed=1)
        oracle = DedupOracle()
        for address, data in trace.as_batch().write_pairs():
            oracle.observe_write(address, data)
        assert oracle.duplicates == 0

    def test_has_both_phases(self):
        trace = worst_case_trace(num_accesses=3_000, seed=1)
        assert len(trace.writes) > 0
        assert len(trace.reads) > 0

    def test_requested_length(self):
        trace = worst_case_trace(num_accesses=2_500)
        assert len(trace) == 2_500

    def test_deterministic(self):
        a = worst_case_trace(num_accesses=1_000, seed=5)
        b = worst_case_trace(num_accesses=1_000, seed=5)
        assert [(x.op, x.address, x.data) for x in a] == [
            (x.op, x.address, x.data) for x in b
        ]

    def test_single_threaded(self):
        trace = worst_case_trace(num_accesses=1_000)
        assert trace.threads == 1
        assert {a.core for a in trace} == {0}

    def test_invalid_length_rejected(self):
        with pytest.raises(ValueError):
            worst_case_trace(num_accesses=0)

    def test_line_too_short_for_the_nonce_rejected(self):
        with pytest.raises(ValueError):
            worst_case_trace(num_accesses=100, line_size_bytes=4)
