"""i-NVMM: hot-data plaintext optimisation and its security exposure."""

from __future__ import annotations

import pytest

from repro.baselines.i_nvmm import INvmmController
from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory

LINE = 256


def make_controller(hot_set_lines: int = 8) -> INvmmController:
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )
    return INvmmController(nvm, hot_set_lines=hot_set_lines)


def line(fill: int) -> bytes:
    return bytes([fill]) * LINE


class TestHotPath:
    def test_hot_data_is_plaintext_at_rest(self):
        # The stolen-DIMM exposure §V criticises.
        controller = make_controller()
        controller.write(0, line(7), 0.0)
        assert controller.nvm.peek(0) == line(7)

    def test_hot_write_skips_aes_latency(self):
        secure = TraditionalSecureNvmController(
            NvmMainMemory(
                NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
            )
        )
        hot = make_controller()
        secure.write(0, line(1), 0.0)
        hot.write(0, line(1), 0.0)
        s = secure.write(0, line(2), 100_000.0)
        h = hot.write(0, line(2), 100_000.0)
        assert h.latency_ns < s.latency_ns
        assert s.latency_ns - h.latency_ns >= 90  # ~the AES latency

    def test_hot_read_returns_data(self):
        controller = make_controller()
        controller.write(0, line(3), 0.0)
        assert controller.read(0, 10_000.0).data == line(3)

    def test_plaintext_bus_transfers_counted(self):
        controller = make_controller()
        controller.write(0, line(1), 0.0)
        controller.read(0, 10_000.0)
        assert controller.plaintext_bus_transfers == 2


class TestColdPath:
    def test_eviction_encrypts_in_place(self):
        controller = make_controller(hot_set_lines=2)
        now = 0.0
        for address in range(3):  # third write evicts line 0
            now = controller.write(address, line(address + 1), now).complete_ns + 100
        assert controller.cold_encryptions == 1
        assert controller.nvm.peek(0) != line(1)  # encrypted at rest now
        assert controller.read(0, now).data == line(1)  # still decrypts

    def test_shutdown_sweep_encrypts_everything(self):
        controller = make_controller(hot_set_lines=8)
        now = 0.0
        for address in range(4):
            now = controller.write(address, line(address + 1), now).complete_ns + 100
        swept = controller.shutdown(now)
        assert swept == 4
        for address in range(4):
            assert controller.nvm.peek(address) != line(address + 1)
            assert controller.read(address, now + 10**6).data == line(address + 1)

    def test_rewrite_after_eviction_goes_hot_again(self):
        controller = make_controller(hot_set_lines=2)
        now = 0.0
        for address in range(3):
            now = controller.write(address, line(address + 1), now).complete_ns + 100
        now = controller.write(0, line(9), now).complete_ns + 100
        assert controller.nvm.peek(0) == line(9)  # plaintext again
        assert controller.read(0, now).data == line(9)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_controller(hot_set_lines=0)

    def test_evicted_lines_read_back_their_data(self):
        controller = make_controller(hot_set_lines=2)
        now = 0.0
        for address in range(6):
            now = controller.write(address, line(address + 1), now).complete_ns + 100
        assert controller.cold_encryptions == 4
        for address in range(6):
            assert controller.read(address, now).data == line(address + 1)

    def test_split_counters_rejected(self):
        # Cold-line encryption bumps the plain per-line counters, which a
        # split-counter read path would never consult.
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        with pytest.raises(ValueError, match="split counters"):
            INvmmController(nvm, SecureNvmConfig(use_split_counters=True), hot_set_lines=2)


class TestSecurityContrast:
    def test_dewrite_never_puts_plaintext_on_the_bus(self):
        # The §V argument in one assertion pair.
        from repro.core.dewrite import DeWriteController

        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        dewrite = DeWriteController(nvm)
        dewrite.write(0, line(7), 0.0)
        assert nvm.peek(dewrite.index.physical_of(0)) != line(7)

        i_nvmm = make_controller()
        i_nvmm.write(0, line(7), 0.0)
        assert i_nvmm.plaintext_bus_transfers > 0
