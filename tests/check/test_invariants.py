"""Unit tests for the runtime invariant checker.

One test per conservation law proves the check *fires* on a seeded
violation (acceptance criterion), plus clean-path coverage and the
``verify()`` methods grown on the metadata structures.
"""

from __future__ import annotations

import pytest

from repro.baselines.secure_nvm import TraditionalSecureNvmController
from repro.check.invariants import CheckedController, InvariantViolation
from repro.core.dewrite import DeWriteController
from repro.core.metadata_cache import MetadataCache
from repro.core.tables import DedupIndex, DedupIndexError
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory

LINE = 256


def make_nvm() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )


def make_checked(**kwargs) -> CheckedController:
    return CheckedController(DeWriteController(make_nvm()), **kwargs)


def tamper_after_each_request(checked: CheckedController, tamper) -> None:
    """Call ``tamper(address)`` after each request the wrapped kernel services."""
    kernel = checked.inner._service_stream

    def tampered(batch, cursor, max_requests=None):
        core = next(iter(cursor.active))
        address = batch.addresses[cursor.streams[core][cursor.positions[core]]]
        result = kernel(batch, cursor, max_requests)
        tamper(address)
        return result

    checked.inner._service_stream = tampered


def fill(controller, count: int = 16, start: float = 0.0) -> float:
    now = start
    for i in range(count):
        data = bytes([i % 7]) * LINE
        now = controller.write(i, data, now).complete_ns + 50.0
    return now


class TestCleanPath:
    def test_mixed_traffic_raises_nothing(self):
        checked = make_checked(deep_check_interval=8)
        now = fill(checked, 48)
        for i in range(48):
            outcome = checked.read(i, now)
            now = outcome.complete_ns + 25.0
        checked.close(now)
        assert checked.operations == 96
        assert checked.deep_checks >= 96 // 8

    def test_wrapper_is_timing_transparent(self):
        # Checked and unchecked runs must produce identical outcomes.
        plain = DeWriteController(make_nvm())
        checked = make_checked()
        now_a = now_b = 0.0
        for i in range(32):
            data = bytes([i % 5]) * LINE
            a = plain.write(i, data, now_a)
            b = checked.write(i, data, now_b)
            assert (a.latency_ns, a.deduplicated) == (b.latency_ns, b.deduplicated)
            now_a = a.complete_ns + 10.0
            now_b = b.complete_ns + 10.0
        assert plain.stats.as_dict() == checked.stats.as_dict()

    def test_forwards_inner_attributes(self):
        checked = make_checked()
        assert checked.index is checked.inner.index
        assert checked.mode == "predictive"
        with pytest.raises(AttributeError):
            checked.no_such_attribute  # noqa: B018

    def test_baseline_controller_supported(self):
        checked = CheckedController(TraditionalSecureNvmController(make_nvm()))
        now = fill(checked, 24)
        for i in range(24):
            now = checked.read(i, now).complete_ns + 10.0
        checked.close(now)


class TestWriteConservationFires:
    def test_stats_tampering_detected(self):
        checked = make_checked(deep_check_interval=0)
        fill(checked, 8)
        checked.stats.writes_stored += 3  # phantom stores
        with pytest.raises(InvariantViolation, match="write conservation"):
            checked.verify()

    def test_per_operation_delta_checked(self):
        checked = make_checked(deep_check_interval=0)
        fill(checked, 4)

        def double_count(address):
            checked.inner.stats.writes_requested += 1  # corrupt the delta

        tamper_after_each_request(checked, double_count)
        with pytest.raises(InvariantViolation, match="writes_requested"):
            checked.write(90, bytes(LINE), 10_000_000.0)


class TestDeviceWriteConservationFires:
    def test_unaccounted_device_write_detected(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)
        # A rogue write straight to the device bypasses the controller's
        # accounting: the cumulative sweep must notice.
        checked.nvm.write(200, bytes(LINE), now)
        with pytest.raises(InvariantViolation, match="device-write conservation"):
            checked.verify()

    def test_rogue_write_during_operation_detected(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)

        def leak(address):
            checked.nvm.write(300, bytes(LINE), now)  # unaccounted

        tamper_after_each_request(checked, leak)
        with pytest.raises(InvariantViolation, match="device-write conservation"):
            checked.write(9, bytes([9]) * LINE, now)


class TestRefcountLawFires:
    def test_refcount_mapping_mismatch_detected(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)
        # Duplicate pair: two logicals mapped to one physical, reference 2.
        checked.write(30, b"\x42" * LINE, now)
        now = checked.write(31, b"\x42" * LINE, now + 1_000.0).complete_ns
        index = checked.index
        physical = index.physical_of(31)
        crc = index.content_crc(physical)
        index._hash_table[crc][physical] += 1  # corrupt the refcount
        with pytest.raises(InvariantViolation, match="dedup index inconsistent"):
            checked.verify()


class TestCounterMonotonicityFires:
    def test_decreasing_counter_detected_by_sweep(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)
        # Rewrite line 3 so its counter reaches 2: the rollback to 1 then
        # passes the structural index check (counter still >= 1) and only
        # the monotonicity sweep can catch it.
        checked.write(3, b"\x55" * LINE, now)
        physical = checked.index.physical_of(3)
        checked.verify()  # records the shadow
        checked.index._counters[physical] -= 1
        with pytest.raises(InvariantViolation, match="one-time pad reuse"):
            checked.verify()

    def test_decreasing_counter_detected_on_next_write(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)

        def roll_counter_back(address):
            physical = checked.index.physical_of(address)
            checked.index._counters[physical] -= 2

        tamper_after_each_request(checked, roll_counter_back)
        with pytest.raises(InvariantViolation, match="one-time pad reuse"):
            checked.write(3, b"\x99" * LINE, now)


class TestRoundTripLawFires:
    def test_ciphertext_corruption_detected_at_write(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)

        def corrupt(address):
            physical = checked.index.physical_of(address)
            stored = bytearray(checked.nvm.peek(physical))
            stored[0] ^= 0xFF
            checked.nvm.poke(physical, bytes(stored))

        tamper_after_each_request(checked, corrupt)
        with pytest.raises(InvariantViolation, match="round-trip"):
            checked.write(50, b"\x07" * LINE, now)

    def test_read_corruption_detected(self):
        checked = make_checked(deep_check_interval=0)
        now = fill(checked, 8)
        physical = checked.index.physical_of(5)
        stored = bytearray(checked.nvm.peek(physical))
        stored[0] ^= 0xFF
        checked.nvm.poke(physical, bytes(stored))
        with pytest.raises(InvariantViolation, match="corrupted data"):
            checked.read(5, now)


class TestVerifyMethods:
    def test_dedup_index_verify_clean_and_counter_law(self):
        index = DedupIndex(total_lines=64)
        touches = []
        dest = index.apply_unique(3, 0xABCD, touches)
        index.bump_counter(dest, touches)
        index.verify()
        # Live data with a zeroed counter breaks the encrypted-at-least-once law.
        index._counters[dest] = 0
        with pytest.raises(DedupIndexError, match="never encrypted"):
            index.verify()

    def test_metadata_cache_verify_capacity(self):
        cache = MetadataCache("t", capacity_blocks=2)
        for i in range(5):
            cache.access(i, write=False)
        cache.verify()
        cache._blocks[99] = False
        cache._blocks[98] = False  # force over capacity
        with pytest.raises(ValueError, match="exceed"):
            cache.verify()

    def test_metadata_system_verify_clean(self):
        controller = DeWriteController(make_nvm())
        fill(controller, 16)
        controller.metadata.verify()

    def test_checked_controller_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            make_checked(deep_check_interval=-1)
