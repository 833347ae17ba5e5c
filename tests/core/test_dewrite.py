"""DeWrite controller: functional correctness, dedup behaviour, timing paths.

The model-based test at the bottom is the repository's strongest invariant:
the controller, with deduplication, relocation, encryption and metadata
caching all active, must be indistinguishable from a plain dictionary.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import DeWriteConfig
from repro.core.dewrite import DeWriteController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.system.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import profile_by_name
from repro.workloads.worstcase import worst_case_trace

LINE = 256


def make_controller(mode: str = "predictive", **config_kwargs) -> DeWriteController:
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )
    return DeWriteController(nvm, config=DeWriteConfig(**config_kwargs), mode=mode)


def line(fill: int) -> bytes:
    return bytes([fill]) * LINE


class TestFunctionalMemory:
    def test_read_your_write(self):
        controller = make_controller()
        data = line(1)
        controller.write(0, data, 0.0)
        assert controller.read(0, 1_000.0).data == data

    def test_unwritten_reads_zero(self):
        controller = make_controller()
        assert controller.read(42, 0.0).data == bytes(LINE)

    def test_overwrite_visible(self):
        controller = make_controller()
        controller.write(0, line(1), 0.0)
        controller.write(0, line(2), 1_000.0)
        assert controller.read(0, 2_000.0).data == line(2)

    def test_deduplicated_line_reads_back(self):
        controller = make_controller()
        data = line(7)
        controller.write(0, data, 0.0)
        outcome = controller.write(1, data, 1_000.0)
        assert outcome.deduplicated
        assert controller.read(1, 2_000.0).data == data
        assert controller.stats.reads_redirected >= 1

    def test_dedup_source_overwrite_preserves_sharers(self):
        # 1 dedups to 0; overwriting 0 must not corrupt 1's data.
        controller = make_controller()
        shared = line(7)
        controller.write(0, shared, 0.0)
        controller.write(1, shared, 1_000.0)
        controller.write(0, line(8), 2_000.0)
        assert controller.read(0, 3_000.0).data == line(8)
        assert controller.read(1, 3_500.0).data == shared
        controller.check_invariants()

    def test_data_stored_encrypted(self):
        controller = make_controller()
        data = line(9)
        controller.write(0, data, 0.0)
        physical = controller.index.physical_of(0)
        assert controller.nvm.peek(physical) != data  # ciphertext at rest

    def test_wrong_line_size_rejected(self):
        controller = make_controller()
        with pytest.raises(ValueError):
            controller.write(0, b"short", 0.0)

    def test_out_of_range_address_rejected(self):
        controller = make_controller()
        with pytest.raises(IndexError):
            controller.write(controller.layout.data_lines, line(0), 0.0)
        with pytest.raises(IndexError):
            controller.read(-1, 0.0)


class TestDeduplicationBehaviour:
    def test_duplicate_write_eliminates_nvm_write(self):
        controller = make_controller()
        controller.write(0, line(3), 0.0)
        writes_before = controller.nvm.writes
        outcome = controller.write(1, line(3), 10_000.0)
        assert outcome.deduplicated
        assert controller.nvm.writes == writes_before  # no array write

    def test_duplicate_latency_below_write_latency(self):
        controller = make_controller()
        controller.write(0, line(3), 0.0)
        controller.write(1, line(3), 10_000.0)  # warm the predictor
        controller.write(2, line(3), 20_000.0)
        outcome = controller.write(3, line(3), 30_000.0)
        assert outcome.deduplicated
        # Table Ib: ~91 ns vs a 300 ns write (+ AES in the baseline).
        assert outcome.latency_ns < 150.0

    def test_silent_store_detected(self):
        controller = make_controller()
        controller.write(0, line(3), 0.0)
        outcome = controller.write(0, line(3), 10_000.0)
        assert outcome.deduplicated

    def test_stats_track_outcomes(self):
        controller = make_controller()
        controller.write(0, line(1), 0.0)
        controller.write(1, line(1), 10_000.0)
        controller.write(2, line(2), 20_000.0)
        stats = controller.stats
        assert stats.writes_requested == 3
        assert stats.writes_deduplicated == 1
        assert stats.writes_stored == 2
        assert stats.write_reduction == pytest.approx(1 / 3)

    def test_write_reduction_zero_when_all_unique(self):
        controller = make_controller()
        for i in range(10):
            controller.write(i, line(i + 1), i * 10_000.0)
        assert controller.stats.write_reduction == 0.0


class TestIntegrationModes:
    def test_invalid_mode_rejected(self):
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        with pytest.raises(ValueError, match="mode"):
            DeWriteController(nvm, mode="bogus")

    def test_direct_mode_serialises_detection_and_encryption(self):
        direct = make_controller(mode="direct")
        parallel = make_controller(mode="parallel")
        # Same unique write on idle systems: direct pays detection + AES
        # serially, parallel overlaps them.
        d = direct.write(0, line(1), 0.0)
        p = parallel.write(0, line(1), 0.0)
        assert d.latency_ns > p.latency_ns

    def test_parallel_mode_wastes_encryption_on_duplicates(self):
        parallel = make_controller(mode="parallel")
        parallel.write(0, line(1), 0.0)
        parallel.write(1, line(1), 10_000.0)
        assert parallel.stats.wasted_encryptions >= 1

    def test_direct_mode_never_wastes_encryption(self):
        direct = make_controller(mode="direct")
        direct.write(0, line(1), 0.0)
        direct.write(1, line(1), 10_000.0)
        direct.write(2, line(1), 20_000.0)
        assert direct.stats.wasted_encryptions == 0

    def test_predictive_energy_between_direct_and_parallel(self):
        rng = random.Random(3)
        traces = []
        base = line(1)
        t = 0.0
        for i in range(300):
            dup = rng.random() < 0.6
            data = base if dup else rng.randbytes(LINE)
            traces.append((i % 64, data, t))
            t += 2_000.0
        energies = {}
        for mode in ("direct", "parallel", "predictive"):
            controller = make_controller(mode=mode)
            for address, data, at in traces:
                controller.write(address, data, at)
            energies[mode] = controller.nvm.energy.aes_nj
        assert energies["direct"] <= energies["predictive"] <= energies["parallel"]


class TestPredictionPlumbing:
    def test_predictor_stats_flow_into_controller_stats(self):
        controller = make_controller()
        for i in range(20):
            controller.write(i % 8, line(1), i * 10_000.0)
        assert controller.stats.predictions == 20
        assert 0.0 <= controller.stats.prediction_accuracy <= 1.0

    def test_prediction_disabled(self):
        controller = make_controller(enable_prediction=False)
        controller.write(0, line(1), 0.0)
        assert controller.stats.predictions == 0

    def test_pna_miss_statistics(self):
        # With PNA on and a cold hash cache, a duplicate predicted non-dup
        # is missed and counted.
        controller = make_controller()
        data = line(5)
        controller.write(0, data, 0.0)
        # Force the hash entry out of the cache by flushing metadata state.
        controller.metadata.caches["hash_table"].flush()
        outcome = controller.write(1, data, 50_000.0)
        assert not outcome.deduplicated
        assert controller.stats.missed_duplicates_pna == 1


class TestMaintenance:
    def test_flush_metadata(self):
        controller = make_controller()
        controller.write(0, line(1), 0.0)
        flushed = controller.flush_metadata(10_000.0)
        assert flushed >= 1
        assert controller.stats.metadata_writebacks >= flushed

    def test_check_invariants_passes_after_traffic(self):
        controller = make_controller()
        rng = random.Random(1)
        t = 0.0
        for _ in range(200):
            address = rng.randrange(64)
            if rng.random() < 0.5:
                controller.write(address, line(rng.randrange(8)), t)
            else:
                controller.read(address, t)
            t += 1_500.0
        controller.check_invariants()

    @pytest.mark.parametrize(
        "trace",
        [
            pytest.param(lambda: worst_case_trace(num_accesses=9_000, seed=1), id="worst-case"),
            pytest.param(
                lambda: generate_trace(profile_by_name("bzip2"), 3_000, seed=1), id="bzip2"
            ),
        ],
    )
    def test_free_stack_holds_no_stored_line(self, trace):
        # An in-place unique rewrite frees its own slot and stores it again
        # at once; the slot must not stay behind on the free stack.
        controller = DeWriteController(NvmMainMemory())
        simulate(controller, trace())
        index = controller.index
        assert not [line for line in index._free_stack if index.holds_data(line)]

    def test_line_size_mismatch_rejected(self):
        nvm = NvmMainMemory(
            NvmConfig(
                organization=NvmOrganization(
                    capacity_bytes=64 * 1024 * 128, line_size_bytes=128
                )
            )
        )
        with pytest.raises(ValueError, match="line size"):
            DeWriteController(nvm)  # default config says 256


class TestModelBased:
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 31),  # address
                st.sampled_from(["read", "write_dup_pool", "write_fresh"]),
                st.integers(0, 7),  # content selector
            ),
            max_size=80,
        )
    )
    def test_controller_equals_dict_model(self, operations):
        """DeWrite must behave exactly like a dict, whatever the traffic."""
        controller = make_controller()
        model: dict[int, bytes] = {}
        pool = [bytes([v]) * LINE for v in range(8)]
        now = 0.0
        fresh = 0
        for address, op, selector in operations:
            if op == "read":
                outcome = controller.read(address, now)
                assert outcome.data == model.get(address, bytes(LINE))
                now = outcome.complete_ns + 100.0
            else:
                if op == "write_dup_pool":
                    data = pool[selector]
                else:
                    fresh += 1
                    data = fresh.to_bytes(8, "little") + bytes(LINE - 8)
                outcome = controller.write(address, data, now)
                model[address] = data
                now = outcome.complete_ns + 100.0
        controller.check_invariants()
        for address, expected in model.items():
            assert controller.read(address, now).data == expected
