"""The device's integer line store and its one write body.

``NvmMainMemory`` keeps each line once, as its little-endian integer, and
programs every write through ``write_complete_ns``; ``write()`` converts its
bytes once and adds the :class:`AccessResult`.  These properties drive random
write/poke/peek sequences through the bytes entry point on one device and the
integer entry point on a twin, and check both against a plain reference model
(last bytes written per line, a :class:`Bank` per bank, popcount bit flips):
never-written lines, all-zero ciphertexts and Start-Gap moves included.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.nvm.bank import Bank
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.nvm.wearlevel import StartGapConfig, WearLevelledNvm

LINE = 256
LINES = 32
ZERO = bytes(LINE)

# Mostly the all-zero line (the erased pattern) and a few fixed lines, so
# rewrites of identical content and zero-flip writes are common; random
# lines for the rest.
line_data = st.one_of(
    st.just(ZERO),
    st.just(b"\xff" * LINE),
    st.sampled_from([bytes([fill]) * LINE for fill in (1, 0x5A, 0x80)]),
    st.binary(min_size=LINE, max_size=LINE),
)
operation = st.one_of(
    st.tuples(
        st.just("write"),
        st.integers(0, LINES - 1),
        line_data,
        st.floats(0.0, 2_000.0, allow_nan=False),
        st.one_of(st.none(), st.integers(0, 8 * LINE)),
    ),
    st.tuples(st.just("poke"), st.integers(0, LINES - 1), line_data),
    st.tuples(st.just("peek"), st.integers(0, LINES - 1)),
)


def make_nvm(lines: int = LINES) -> NvmMainMemory:
    return NvmMainMemory(NvmConfig(organization=NvmOrganization(capacity_bytes=lines * LINE)))


def bank_state(nvm) -> list[tuple]:
    return [
        (
            b.busy_until_ns, b.read_tail_ns, b.open_line, b.serviced_requests,
            b.total_wait_ns, b.total_service_ns, b.row_hits, b.peak_backlog_ns,
        )
        for b in nvm.banks
    ]


def device_state(nvm, lines: int) -> tuple:
    """Everything a write can change, as comparable plain values."""
    return (
        bank_state(nvm),
        nvm.wear.summary(),
        [(nvm.wear.writes_to(a), nvm.wear.flips_to(a)) for a in range(lines)],
        nvm.energy.breakdown(),
        nvm.writes,
        [(nvm.peek(a), nvm.peek_int(a), nvm.contains(a)) for a in range(lines)],
    )


def flips(old: bytes, new: bytes) -> int:
    return (int.from_bytes(old, "little") ^ int.from_bytes(new, "little")).bit_count()


class TestIntegerWriteMatchesBytesWrite:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(operation, max_size=40))
    def test_random_sequences(self, ops):
        by_bytes = make_nvm()
        by_int = make_nvm()
        t_write = by_bytes.config.timing.write_ns
        shadow_banks = [Bank(index=b.index) for b in by_bytes.banks]
        model: dict[int, bytes] = {}
        line_wear: dict[int, list[int]] = {}  # line -> [writes, flips]
        pj_per_bit = by_bytes.config.energy.write_pj_per_bit
        write_nj = 0.0
        now = 0.0
        for op in ops:
            if op[0] == "write":
                _, address, data, step, bits = op
                now += step
                result = by_bytes.write(address, data, now, bits)
                complete = by_int.write_complete_ns(
                    address, int.from_bytes(data, "little"), now, bits
                )
                start, expected = shadow_banks[address % len(shadow_banks)].schedule(
                    now, t_write
                )
                assert (result.address, result.arrival_ns) == (address, now)
                assert (result.start_ns, result.complete_ns) == (start, expected)
                assert result.wait_ns == start - now
                assert result.data is None
                assert complete == expected
                write_nj += (8 * LINE if bits is None else bits) * pj_per_bit / 1000.0
                wear = line_wear.setdefault(address, [0, 0])
                wear[0] += 1
                wear[1] += flips(model.get(address, ZERO), data)
                model[address] = data
            elif op[0] == "poke":
                _, address, data = op
                by_bytes.poke(address, data)
                by_int.poke(address, data)
                model[address] = data
            else:
                address = op[1]
                assert by_bytes.peek(address) == model.get(address, ZERO)
                assert by_int.peek_int(address) == int.from_bytes(
                    model.get(address, ZERO), "little"
                )
        assert device_state(by_bytes, LINES) == device_state(by_int, LINES)
        assert by_int.energy.nvm_write_nj == write_nj
        assert by_int.writes == sum(w for w, _ in line_wear.values())
        summary = by_int.wear.summary()
        assert summary.total_line_writes == sum(w for w, _ in line_wear.values())
        assert summary.total_bit_flips == sum(f for _, f in line_wear.values())
        assert summary.distinct_lines_written == len(line_wear)
        for address in range(LINES):
            writes, line_flips = line_wear.get(address, (0, 0))
            assert by_int.wear.writes_to(address) == writes
            assert by_int.wear.flips_to(address) == line_flips
            assert by_int.peek(address) == model.get(address, ZERO)
            assert by_int.contains(address) == (address in model)

    def test_all_zero_ciphertext_is_a_stored_line(self):
        nvm = make_nvm()
        nvm.write_complete_ns(3, 0, 0.0)
        assert nvm.contains(3)
        assert not nvm.contains(4)
        assert nvm.peek(3) == nvm.peek(4) == ZERO
        assert nvm.peek_int(3) == nvm.peek_int(4) == 0
        assert nvm.wear.summary().total_bit_flips == 0
        assert nvm.wear.writes_to(3) == 1

    def test_read_data_is_built_from_the_store(self):
        nvm = make_nvm()
        value = int.from_bytes(bytes(range(LINE)), "little")
        nvm.write_complete_ns(5, value, 0.0)
        assert nvm.read(5, 1_000.0).data == bytes(range(LINE))
        assert nvm.read(6, 2_000.0).data == ZERO


class TestWearLevelledIntegerWrite:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 14), line_data, st.floats(0.0, 2_000.0, allow_nan=False)),
            max_size=40,
        ),
        st.integers(1, 4),
    )
    def test_random_sequences_across_gap_moves(self, writes, interval):
        config = StartGapConfig(gap_interval=interval)
        by_bytes = WearLevelledNvm(make_nvm(), region_lines=15, config=config)
        by_int = WearLevelledNvm(make_nvm(), region_lines=15, config=config)
        model: dict[int, bytes] = {}
        now = 0.0
        for address, data, step in writes:
            now += step
            result = by_bytes.write(address, data, now)
            complete = by_int.write_complete_ns(address, int.from_bytes(data, "little"), now)
            assert complete == result.complete_ns
            model[address] = data
        assert by_bytes.levelling_writes == by_int.levelling_writes
        assert by_int.levelling_writes == len(writes) // interval
        assert device_state(by_bytes._nvm, 16) == device_state(by_int._nvm, 16)
        for address in range(15):
            # Gap moves carry each logical line's content with it.
            expected = model.get(address, ZERO)
            assert by_int.peek(address) == by_bytes.peek(address) == expected
            assert by_int.peek_int(address) == int.from_bytes(expected, "little")
