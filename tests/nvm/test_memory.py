"""NVM main memory: functional storage, timing, wear, energy, row buffer."""

from __future__ import annotations

import pytest

from repro.nvm.config import NvmConfig, NvmOrganization, NvmTimingConfig
from repro.nvm.memory import NvmMainMemory

LINE = 256


def small_memory() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=1024 * LINE))
    )


class TestFunctionalStorage:
    def test_unwritten_lines_read_zero(self):
        nvm = small_memory()
        assert nvm.read(5, 0.0).data == bytes(LINE)
        assert not nvm.contains(5)

    def test_read_returns_written_data(self):
        nvm = small_memory()
        data = bytes(range(256))
        nvm.write(3, data, 0.0)
        assert nvm.read(3, 1000.0).data == data
        assert nvm.contains(3)

    def test_overwrite(self):
        nvm = small_memory()
        nvm.write(3, b"\x01" * LINE, 0.0)
        nvm.write(3, b"\x02" * LINE, 1000.0)
        assert nvm.peek(3) == b"\x02" * LINE

    def test_peek_has_no_timing_effect(self):
        nvm = small_memory()
        nvm.peek(9)
        assert nvm.reads == 0
        assert nvm.energy.total_nj == 0.0

    def test_wrong_line_size_rejected(self):
        nvm = small_memory()
        with pytest.raises(ValueError, match="256 bytes"):
            nvm.write(0, b"short", 0.0)

    @pytest.mark.parametrize("address", [-1, 1024, 10**9])
    def test_out_of_range_rejected(self, address):
        nvm = small_memory()
        with pytest.raises(IndexError):
            nvm.read(address, 0.0)
        with pytest.raises(IndexError):
            nvm.write(address, bytes(LINE), 0.0)

    @pytest.mark.parametrize("address", [-1, 1024])
    def test_untimed_access_out_of_range_rejected(self, address):
        nvm = small_memory()
        message = rf"line address {address} out of range \[0, 1024\)"
        with pytest.raises(IndexError, match=message):
            nvm.peek(address)
        with pytest.raises(IndexError, match=message):
            nvm.peek_int(address)
        with pytest.raises(IndexError, match=message):
            nvm.poke(address, bytes(LINE))
        assert not nvm.contains(address)


class TestTiming:
    def test_write_latency(self):
        nvm = small_memory()
        result = nvm.write(0, bytes(LINE), 10.0)
        assert result.start_ns == 10.0
        assert result.complete_ns == 310.0
        assert result.latency_ns == 300.0
        assert result.wait_ns == 0.0

    def test_read_latency(self):
        nvm = small_memory()
        result = nvm.read(0, 10.0)
        assert result.latency_ns == 75.0

    def test_same_bank_conflict(self):
        nvm = small_memory()
        banks = nvm.config.organization.total_banks
        nvm.write(0, bytes(LINE), 0.0)
        conflicted = nvm.write(banks, bytes(LINE), 0.0)  # same bank 0
        assert conflicted.start_ns == 300.0
        parallel = nvm.write(1, bytes(LINE), 0.0)  # different bank
        assert parallel.start_ns == 0.0

    def test_row_buffer_hit(self):
        nvm = small_memory()
        nvm.read(0, 0.0)
        hit = nvm.read(0, 500.0)
        assert hit.latency_ns == nvm.config.timing.row_hit_ns
        assert sum(b.row_hits for b in nvm.banks) == 1

    def test_row_buffer_miss_after_other_line(self):
        nvm = small_memory()
        banks = nvm.config.organization.total_banks
        nvm.read(0, 0.0)
        nvm.read(banks, 500.0)  # same bank, different line
        miss = nvm.read(0, 1000.0)
        assert miss.latency_ns == 75.0

    def test_write_opens_row(self):
        nvm = small_memory()
        nvm.write(0, bytes(LINE), 0.0)
        hit = nvm.read(0, 1000.0)
        assert hit.latency_ns == nvm.config.timing.row_hit_ns


class TestWearAccounting:
    def test_bit_flips_counted_vs_previous_content(self):
        nvm = small_memory()
        nvm.write(0, b"\x00" * LINE, 0.0)
        nvm.write(0, b"\xff" * LINE, 1000.0)
        summary = nvm.wear.summary()
        assert summary.total_line_writes == 2
        assert summary.total_bit_flips == 2048  # all-zero -> all-one

    def test_first_write_flips_from_erased_state(self):
        nvm = small_memory()
        nvm.write(0, b"\x0f" * LINE, 0.0)
        assert nvm.wear.summary().total_bit_flips == 4 * LINE

    def test_identical_rewrite_flips_nothing(self):
        nvm = small_memory()
        data = bytes(range(256))
        nvm.write(0, data, 0.0)
        flips_after_first = nvm.wear.summary().total_bit_flips
        nvm.write(0, data, 1000.0)
        assert nvm.wear.summary().total_bit_flips == flips_after_first

    def test_bits_written_defaults_to_full_line(self):
        nvm = small_memory()
        nvm.write(0, bytes(LINE), 0.0)
        assert nvm.wear.summary().total_bits_written == 2048

    def test_bits_written_override(self):
        nvm = small_memory()
        nvm.write(0, bytes(LINE), 0.0, bits_written=100)
        assert nvm.wear.summary().total_bits_written == 100

    def test_per_line_write_counts(self):
        nvm = small_memory()
        for _ in range(5):
            nvm.write(7, bytes(LINE), 0.0)
        assert nvm.wear.writes_to(7) == 5
        assert nvm.wear.writes_to(8) == 0


class TestEnergyAccounting:
    def test_write_energy(self):
        nvm = small_memory()
        nvm.write(0, bytes(LINE), 0.0)
        expected = nvm.config.energy.write_nj(2048)
        assert nvm.energy.nvm_write_nj == pytest.approx(expected)

    def test_read_energy(self):
        nvm = small_memory()
        nvm.read(0, 0.0)
        expected = nvm.config.energy.read_nj_per_line(LINE)
        assert nvm.energy.nvm_read_nj == pytest.approx(expected)

    def test_row_hit_read_is_cheap(self):
        nvm = small_memory()
        nvm.read(0, 0.0)
        first = nvm.energy.nvm_read_nj
        nvm.read(0, 100.0)
        assert nvm.energy.nvm_read_nj - first == pytest.approx(0.1 * first)

    def test_breakdown_sums_to_total(self):
        nvm = small_memory()
        nvm.write(0, bytes(LINE), 0.0)
        nvm.read(0, 1000.0)
        nvm.energy.add_aes_line()
        nvm.energy.add_dedup_op()
        breakdown = nvm.energy.breakdown()
        parts = (
            breakdown["nvm_read_nj"]
            + breakdown["nvm_write_nj"]
            + breakdown["aes_nj"]
            + breakdown["dedup_logic_nj"]
        )
        assert breakdown["total_nj"] == pytest.approx(parts)


class TestReset:
    def test_reset_timing_keeps_data(self):
        nvm = small_memory()
        data = bytes(range(256))
        nvm.write(0, data, 0.0)
        nvm.reset_timing()
        assert nvm.peek(0) == data
        assert nvm.reads == 0
        assert nvm.writes == 0
        assert nvm.energy.total_nj == 0.0
        assert nvm.wear.summary().total_line_writes == 0

    def test_mean_bank_wait_empty(self):
        assert small_memory().mean_bank_wait_ns() == 0.0
