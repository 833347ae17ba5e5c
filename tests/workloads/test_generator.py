"""Trace generator: each trace must exhibit its profile's statistics."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.predictor import HistoryWindowPredictor
from repro.workloads.generator import TraceGenerator, generate_trace
from repro.workloads.oracle import DedupOracle, is_zero_line
from repro.workloads.profiles import profile_by_name

LINE = 256


def measure(name: str, accesses: int = 12_000, seed: int = 3):
    profile = profile_by_name(name)
    trace = generate_trace(profile, accesses, seed=seed)
    oracle = DedupOracle()
    for address, data in trace.as_batch().write_pairs():
        oracle.observe_write(address, data)
    return profile, trace, oracle


def measure_mean_ratios(name: str, seeds=(0, 1, 2), accesses: int = 12_000):
    """Average duplicate/zero ratios over seeds — duplication-state runs
    are ~60 writes long, so single traces carry few effective samples."""
    profile = profile_by_name(name)
    dup = zero = 0.0
    for seed in seeds:
        trace = generate_trace(profile, accesses, seed=seed)
        oracle = DedupOracle()
        for address, data in trace.as_batch().write_pairs():
            oracle.observe_write(address, data)
        dup += oracle.duplicate_ratio
        zero += oracle.zero_ratio
    return profile, dup / len(seeds), zero / len(seeds)


class TestDuplicationStatistics:
    @pytest.mark.parametrize("name", ["lbm", "cactusADM", "mcf", "bzip2", "vips"])
    def test_duplicate_ratio_matches_profile(self, name):
        profile, dup, _ = measure_mean_ratios(name)
        assert dup == pytest.approx(profile.dup_ratio, abs=0.05)

    @pytest.mark.parametrize("name", ["lbm", "sjeng", "mcf", "vips"])
    def test_zero_ratio_matches_profile(self, name):
        profile, _, zero = measure_mean_ratios(name)
        assert zero == pytest.approx(profile.zero_line_fraction, abs=0.06)

    def test_state_locality_matches_profile(self):
        profile, trace, _ = measure("mcf", accesses=20_000)
        oracle = DedupOracle()
        states = [oracle.observe_write(a, d) for a, d in trace.as_batch().write_pairs()]
        same = sum(1 for a, b in zip(states, states[1:]) if a == b)
        locality = same / (len(states) - 1)
        assert locality == pytest.approx(profile.state_locality, abs=0.04)

    def test_wider_history_window_wins(self):
        # The Fig. 4 structure: majority-of-3 beats last-value.
        _, trace, _ = measure("gcc", accesses=25_000)
        oracle = DedupOracle()
        states = [oracle.observe_write(a, d) for a, d in trace.as_batch().write_pairs()]
        one = HistoryWindowPredictor(window=1)
        three = HistoryWindowPredictor(window=3)
        for state in states:
            one.observe(state)
            three.observe(state)
        assert three.accuracy > one.accuracy


class TestStreamShape:
    def test_requested_length(self):
        _, trace, _ = measure("mcf", accesses=5_000)
        assert len(trace) == 5_000

    def test_write_fraction_roughly_matches(self):
        profile, trace, _ = measure("mcf", accesses=15_000)
        fraction = len(trace.writes) / len(trace)
        # Bursts are write-biased, so the global fraction sits somewhat
        # above the base write_fraction; it must stay in a sane band.
        assert profile.write_fraction - 0.05 <= fraction <= profile.write_fraction + 0.3

    def test_addresses_within_working_set(self):
        profile, trace, _ = measure("bzip2")
        assert all(0 <= a.address < profile.working_set_lines for a in trace)

    def test_threads_match_profile(self):
        _, trace, _ = measure("blackscholes")
        cores = {a.core for a in trace}
        assert cores == set(range(4))
        _, spec_trace, _ = measure("mcf")
        assert {a.core for a in spec_trace} == {0}

    def test_persistent_fraction_in_band(self):
        profile, trace, _ = measure("lbm", accesses=20_000)
        writes = trace.writes
        fraction = sum(1 for w in writes if w.persistent) / len(writes)
        assert fraction == pytest.approx(profile.persist_fraction, abs=0.05)

    def test_gaps_are_positive(self):
        _, trace, _ = measure("gcc", accesses=3_000)
        assert all(a.gap_instructions >= 1 for a in trace)


class TestDeterminism:
    def test_same_seed_same_trace(self):
        profile = profile_by_name("milc")
        a = generate_trace(profile, 2_000, seed=9)
        b = generate_trace(profile, 2_000, seed=9)
        assert [(x.op, x.address, x.data) for x in a] == [
            (x.op, x.address, x.data) for x in b
        ]

    def test_different_seed_different_trace(self):
        profile = profile_by_name("milc")
        a = generate_trace(profile, 2_000, seed=1)
        b = generate_trace(profile, 2_000, seed=2)
        assert [(x.op, x.address) for x in a] != [(x.op, x.address) for x in b]


class TestContentStructure:
    def test_fresh_lines_word_sparse(self):
        # ~half the 16-bit words of unique content are zero (drives DEUCE).
        # A fresh line is a write to a never-written address whose content
        # appeared nowhere before (duplicates copy resident content, and
        # the all-zero line is the seeded zero write).
        trace = TraceGenerator(profile_by_name("vips"), seed=4).generate(2_000)
        seen_addresses: set[int] = set()
        seen_content = {bytes(256)}
        fresh = []
        for address, line in trace.as_batch().write_pairs():
            if address not in seen_addresses and line not in seen_content:
                fresh.append(line)
            seen_addresses.add(address)
            seen_content.add(line)
        assert len(fresh) >= 50
        zero_words = sum(
            1
            for line in fresh
            for w in range(128)
            if line[2 * w : 2 * w + 2] == b"\x00\x00"
        )
        assert 0.40 <= zero_words / (len(fresh) * 128) <= 0.60

    def test_validation(self):
        gen = TraceGenerator(profile_by_name("mcf"))
        with pytest.raises(ValueError):
            gen.generate(0)
        with pytest.raises(ValueError):
            TraceGenerator(profile_by_name("mcf"), line_size_bytes=255)
        # A line too short for the 8-byte nonce has no nonce position.
        with pytest.raises(ValueError):
            TraceGenerator(profile_by_name("mcf"), line_size_bytes=6)
