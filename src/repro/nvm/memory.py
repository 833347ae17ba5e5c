"""The banked NVM main-memory device.

Functionally it is a sparse array of encrypted lines, each stored once as
its little-endian integer (the form the CME engine seals and the bit-flip
count XORs; bytes are built only when a caller asks for them); temporally
it is a set of independently busy banks with asymmetric read/write service
times; and it feeds the wear and energy trackers on every access.  Memory
controllers (DeWrite and all baselines) sit on top of this one class, so
every design is measured against the identical device.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.nvm.bank import Bank
from repro.nvm.config import NvmConfig
from repro.nvm.energy import EnergyAccount
from repro.nvm.wear import WearTracker
from repro.obs.timeline import NULL_TIMELINE, TimelineLike
from repro.obs.trace import NULL_TRACER, TracerLike


class AccessResult(NamedTuple):
    """Timing outcome of one array access.

    A NamedTuple rather than a dataclass: the device constructs one per
    access on the hot path, and tuple allocation is several times cheaper
    than dataclass ``__init__``.
    """

    address: int
    start_ns: float
    complete_ns: float
    arrival_ns: float
    data: bytes | None = None

    @property
    def wait_ns(self) -> float:
        """Queueing delay before the bank began service."""
        return self.start_ns - self.arrival_ns

    @property
    def latency_ns(self) -> float:
        """Arrival-to-completion latency (what the requester observes)."""
        return self.complete_ns - self.arrival_ns


class NvmMainMemory:
    """Banked, wear-tracked, energy-tracked non-volatile main memory.

    Addresses are line indices.  Unwritten lines read as all-zero bytes,
    modelling a fresh (or shredded) device.
    """

    def __init__(self, config: NvmConfig | None = None) -> None:
        self.config = config if config is not None else NvmConfig()
        org = self.config.organization
        timing = self.config.timing
        # Written line -> its little-endian value.  Bit-flip counting is one
        # XOR of stored ints, and an unwritten line reads as 0, the all-zero
        # line.
        self._line_ints: dict[int, int] = {}
        self._banks = [Bank(index=i) for i in range(org.total_banks)]
        self.wear = WearTracker()
        self.energy = EnergyAccount(
            config=self.config.energy, line_size_bytes=org.line_size_bytes
        )
        self.reads = 0
        self.writes = 0
        self.tracer: TracerLike = NULL_TRACER
        self.timeline: TimelineLike = NULL_TIMELINE
        # Hot-path constants, hoisted out of the per-access property chains.
        # All are pure functions of the (frozen) config, so precomputing
        # them cannot change any simulated value.
        self._total_lines = org.total_lines
        self._bank_count = org.total_banks
        self._line_size = org.line_size_bytes
        self._t_read_ns = timing.read_ns
        self._t_row_hit_ns = timing.row_hit_ns
        self._t_write_ns = timing.write_ns
        energy_cfg = self.config.energy
        self._e_read_miss_nj = energy_cfg.read_nj_per_line(self._line_size, row_hit=False)
        self._e_read_hit_nj = energy_cfg.read_nj_per_line(self._line_size, row_hit=True)
        self._e_write_pj_per_bit = energy_cfg.write_pj_per_bit
        self._full_line_bits = self._line_size * 8
        # write()/read() inline the bank scheduling arithmetic, so the
        # service-time validation Bank.schedule would perform moves here,
        # once per device instead of once per access.
        if min(self._t_read_ns, self._t_row_hit_ns, self._t_write_ns) < 0:
            raise ValueError("NVM service times must be non-negative")

    # -- timed device interface ---------------------------------------------

    def read(self, address: int, arrival_ns: float, *, trace: bool = True) -> AccessResult:
        """Service one line read through its bank.

        A read of the line currently latched in the bank's row buffer is a
        row hit: it skips the array access (``row_hit_ns``, ~10 % energy).

        ``trace=False`` suppresses the device-level span only (scheduling,
        energy and stats are unaffected) — DeWrite's detection uses it for
        verify reads, whose interval the enclosing ``write.dedup`` span
        already records and which would otherwise dominate the trace on
        dedup-heavy workloads.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        bank = self._banks[address % self._bank_count]
        row_hit = bank.open_line == address
        # Inlined Bank.schedule_read(arrival, service, bypass_cap=t_write)
        # with the default drain watermark — arithmetic identical, but the
        # call/validation overhead is off the per-access path.
        service = self._t_row_hit_ns if row_hit else self._t_read_ns
        t_write = self._t_write_ns
        busy = bank.busy_until_ns
        backlog = busy - arrival_ns
        if backlog > bank.peak_backlog_ns:
            bank.peak_backlog_ns = backlog
        backlog_excess = backlog - t_write * 2
        earliest = arrival_ns + backlog_excess if backlog_excess > 0 else arrival_ns
        in_service_until = earliest + t_write
        if busy < in_service_until:
            in_service_until = busy
        start = arrival_ns
        if bank.read_tail_ns > start:
            start = bank.read_tail_ns
        if in_service_until > start:
            start = in_service_until
        complete = start + service
        bank.read_tail_ns = complete
        new_busy = (busy if busy > arrival_ns else arrival_ns) + service
        if complete > new_busy:
            new_busy = complete
        bank.busy_until_ns = new_busy
        bank.serviced_requests += 1
        bank.total_wait_ns += start - arrival_ns
        bank.total_service_ns += service
        if row_hit:
            bank.row_hits += 1
            self.energy.nvm_read_nj += self._e_read_hit_nj
        else:
            self.energy.nvm_read_nj += self._e_read_miss_nj
        bank.open_line = address
        self.reads += 1
        if trace and self.tracer.enabled:
            self.tracer.span(
                "nvm.read",
                arrival_ns,
                complete,
                bank=bank.index,
                wait_ns=start - arrival_ns,
                row_hit=row_hit,
            )
        if self.timeline.enabled:
            # Verify reads (trace=False) are still real device traffic, so
            # the timeline counts them even when the span is suppressed.
            self.timeline.record_nvm_read(
                arrival_ns, bank=bank.index, wait_ns=start - arrival_ns
            )
        return AccessResult(
            address=address,
            start_ns=start,
            complete_ns=complete,
            arrival_ns=arrival_ns,
            data=self._line_ints.get(address, 0).to_bytes(self._line_size, "little"),
        )

    def write(
        self,
        address: int,
        data: bytes,
        arrival_ns: float,
        bits_written: int | None = None,
    ) -> AccessResult:
        """Service one line write through its bank.

        Args:
            address: physical line index.
            data: new line contents (ciphertext, for secure controllers).
            arrival_ns: request arrival time.
            bits_written: cells the write circuit programs; defaults to the
                full line (naive write).  Bit-level reduction baselines pass
                their own figure; wear always additionally records the true
                number of flipped cells.

        Converts ``data`` once and programs it through
        :meth:`write_complete_ns`; the result adds the service start, read
        off the bank before the write is scheduled.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        if len(data) != self._line_size:
            raise ValueError(f"line must be {self._line_size} bytes, got {len(data)}")
        busy = self._banks[address % self._bank_count].busy_until_ns
        complete = self.write_complete_ns(
            address, int.from_bytes(data, "little"), arrival_ns, bits_written
        )
        return AccessResult(
            address=address,
            start_ns=arrival_ns if arrival_ns > busy else busy,
            complete_ns=complete,
            arrival_ns=arrival_ns,
        )

    def write_complete_ns(
        self,
        address: int,
        value: int,
        arrival_ns: float,
        bits_written: int | None = None,
    ) -> float:
        """Program one line, given as its little-endian integer; returns the
        complete time.

        The device's one write body: bank scheduling, wear, energy,
        statistics, tracer and timeline.  ``value`` must be a line's value
        (``0 <= value < 2 ** (8 * line_size)``): the CME engine's
        :meth:`~repro.crypto.counter_mode.CounterModeEngine.seal` output
        is one by construction.  ``bits_written`` is as in :meth:`write`.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        bank = self._banks[address % self._bank_count]
        # Inlined Bank.schedule(arrival, t_write) — arithmetic identical.
        busy = bank.busy_until_ns
        backlog = busy - arrival_ns
        if backlog > bank.peak_backlog_ns:
            bank.peak_backlog_ns = backlog
        start = arrival_ns if arrival_ns > busy else busy
        t_write = self._t_write_ns
        complete = start + t_write
        bank.busy_until_ns = complete
        bank.serviced_requests += 1
        bank.total_wait_ns += start - arrival_ns
        bank.total_service_ns += t_write
        bank.open_line = address

        line_ints = self._line_ints
        flips = (line_ints.get(address, 0) ^ value).bit_count()
        if bits_written is None:
            bits_written = self._full_line_bits
        self.wear.record_write(address, flips, bits_written)
        self.energy.nvm_write_nj += bits_written * self._e_write_pj_per_bit / 1000.0
        line_ints[address] = value
        self.writes += 1
        if self.tracer.enabled:
            self.tracer.span(
                "nvm.write",
                arrival_ns,
                complete,
                bank=bank.index,
                wait_ns=start - arrival_ns,
                bit_flips=flips,
            )
        if self.timeline.enabled:
            self.timeline.record_nvm_write(
                arrival_ns, bank=bank.index, wait_ns=start - arrival_ns, bit_flips=flips
            )
        return complete

    def read_complete_ns(self, address: int, arrival_ns: float, *, trace: bool = True) -> float:
        """:meth:`read` without the result object: returns the complete time.

        Scheduling, energy, statistics, tracer and timeline effects are
        identical to :meth:`read`; only the :class:`AccessResult` (and its
        line-content lookup) is elided.  For callers that discard the data —
        verify reads, fused batch kernels, counter fetches.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        bank = self._banks[address % self._bank_count]
        row_hit = bank.open_line == address
        service = self._t_row_hit_ns if row_hit else self._t_read_ns
        t_write = self._t_write_ns
        busy = bank.busy_until_ns
        backlog = busy - arrival_ns
        if backlog > bank.peak_backlog_ns:
            bank.peak_backlog_ns = backlog
        backlog_excess = backlog - t_write * 2
        earliest = arrival_ns + backlog_excess if backlog_excess > 0 else arrival_ns
        in_service_until = earliest + t_write
        if busy < in_service_until:
            in_service_until = busy
        start = arrival_ns
        if bank.read_tail_ns > start:
            start = bank.read_tail_ns
        if in_service_until > start:
            start = in_service_until
        complete = start + service
        bank.read_tail_ns = complete
        new_busy = (busy if busy > arrival_ns else arrival_ns) + service
        if complete > new_busy:
            new_busy = complete
        bank.busy_until_ns = new_busy
        bank.serviced_requests += 1
        bank.total_wait_ns += start - arrival_ns
        bank.total_service_ns += service
        if row_hit:
            bank.row_hits += 1
            self.energy.nvm_read_nj += self._e_read_hit_nj
        else:
            self.energy.nvm_read_nj += self._e_read_miss_nj
        bank.open_line = address
        self.reads += 1
        if trace and self.tracer.enabled:
            self.tracer.span(
                "nvm.read",
                arrival_ns,
                complete,
                bank=bank.index,
                wait_ns=start - arrival_ns,
                row_hit=row_hit,
            )
        if self.timeline.enabled:
            self.timeline.record_nvm_read(
                arrival_ns, bank=bank.index, wait_ns=start - arrival_ns
            )
        return complete

    def read_burst(self, addresses: "range | list[int]", arrival_ns: float) -> None:
        """Service a burst of line reads arriving together, results discarded.

        Semantically identical to calling :meth:`read` (with ``trace=False``)
        on each address in order and ignoring the returned data — same bank
        scheduling, energy, wear-neutral accounting and statistics — but
        fused into one loop with the per-request allocations (the
        :class:`AccessResult`, the line-content lookup) elided.  Built for
        scanners and verifiers that only need the bank occupancy side
        effects of their reads, e.g. the out-of-line page-dedup scanner.
        """
        total_lines = self._total_lines
        banks = self._banks
        bank_count = self._bank_count
        t_hit = self._t_row_hit_ns
        t_read = self._t_read_ns
        t_write = self._t_write_ns
        e_hit = self._e_read_hit_nj
        e_miss = self._e_read_miss_nj
        energy = self.energy
        timeline = self.timeline if self.timeline.enabled else None
        count = 0
        drain_threshold = t_write * 2
        for address in addresses:
            if not 0 <= address < total_lines:
                self._check_address(address)
            bank = banks[address % bank_count]
            row_hit = bank.open_line == address
            # Inlined Bank.schedule_read — same arithmetic as read().
            service = t_hit if row_hit else t_read
            busy = bank.busy_until_ns
            backlog = busy - arrival_ns
            if backlog > bank.peak_backlog_ns:
                bank.peak_backlog_ns = backlog
            backlog_excess = backlog - drain_threshold
            earliest = arrival_ns + backlog_excess if backlog_excess > 0 else arrival_ns
            in_service_until = earliest + t_write
            if busy < in_service_until:
                in_service_until = busy
            start = arrival_ns
            if bank.read_tail_ns > start:
                start = bank.read_tail_ns
            if in_service_until > start:
                start = in_service_until
            complete = start + service
            bank.read_tail_ns = complete
            new_busy = (busy if busy > arrival_ns else arrival_ns) + service
            if complete > new_busy:
                new_busy = complete
            bank.busy_until_ns = new_busy
            bank.serviced_requests += 1
            bank.total_wait_ns += start - arrival_ns
            bank.total_service_ns += service
            if row_hit:
                bank.row_hits += 1
                energy.nvm_read_nj += e_hit
            else:
                energy.nvm_read_nj += e_miss
            bank.open_line = address
            count += 1
            if timeline is not None:
                timeline.record_nvm_read(
                    arrival_ns, bank=bank.index, wait_ns=start - arrival_ns
                )
        self.reads += count

    # -- functional (untimed) interface ----------------------------------------

    def peek(self, address: int) -> bytes:
        """Read line contents with no timing or energy effect (testing aid)."""
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        return self._line_ints.get(address, 0).to_bytes(self._line_size, "little")

    def peek_int(self, address: int) -> int:
        """Line contents as a little-endian integer, untimed (0 if unwritten).

        The stored form itself, so verify-read compares and audits stay in
        the integer domain instead of round-tripping through bytes.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        return self._line_ints.get(address, 0)

    def contains(self, address: int) -> bool:
        """Whether the line has ever been written."""
        return address in self._line_ints

    def poke(self, address: int, data: bytes) -> None:
        """Overwrite line contents with no timing, wear or energy effect.

        The functional counterpart of :meth:`peek`, used by the fault
        injectors (:mod:`repro.faults.injectors`) to model stuck-at and
        disturb faults: the cells change state without any request having
        been issued, so no bank is occupied and no write is counted.
        """
        if not 0 <= address < self._total_lines:
            self._check_address(address)
        if len(data) != self._line_size:
            raise ValueError(f"line must be {self._line_size} bytes, got {len(data)}")
        self._line_ints[address] = int.from_bytes(data, "little")

    # -- statistics -------------------------------------------------------------

    @property
    def banks(self) -> list[Bank]:
        """Bank objects, exposing per-bank queueing statistics."""
        return self._banks

    def mean_bank_wait_ns(self) -> float:
        """Mean queueing delay across all serviced requests."""
        serviced = sum(b.serviced_requests for b in self._banks)
        if not serviced:
            return 0.0
        return sum(b.total_wait_ns for b in self._banks) / serviced

    def peak_backlog_ns(self) -> float:
        """Worst write-queue backlog any bank saw (contention headline)."""
        return max((b.peak_backlog_ns for b in self._banks), default=0.0)

    def reset_timing(self) -> None:
        """Clear bank occupancy and counters but keep stored data."""
        for bank in self._banks:
            bank.reset()
        self.reads = 0
        self.writes = 0
        self.wear.reset()
        self.energy.reset()

    # -- internals ----------------------------------------------------------------

    def _check_address(self, address: int) -> None:
        if not 0 <= address < self.config.organization.total_lines:
            raise IndexError(
                f"line address {address} out of range "
                f"[0, {self.config.organization.total_lines})"
            )
