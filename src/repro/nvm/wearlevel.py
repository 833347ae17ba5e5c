"""Start-Gap wear levelling (Qureshi et al., MICRO'09) for the NVM array.

The paper's endurance claims (§I, §IV-B) presume writes are spread across
the device — a hot line rewritten in place would die at 10^8 writes no
matter how many duplicates DeWrite eliminates.  Start-Gap is the standard
low-cost mechanism: keep one spare ("gap") line, and every ``gap_interval``
writes move the gap down by one slot, slowly rotating the whole address
space.  Two registers (*start*, *gap*) plus one spare line buy near-ideal
levelling with no remapping table.

The mapping for a region of N lines with one spare (N+1 physical slots):

    physical(L) = (L + start) mod (N + 1), skipping the gap slot
                  (addresses at or past the gap shift down by one).

Every ``gap_interval`` writes, the line just above the gap is copied into
the gap (one extra write — the levelling overhead) and the gap moves up;
when the gap wraps, *start* advances, completing one rotation.

:class:`WearLevelledNvm` wraps :class:`~repro.nvm.memory.NvmMainMemory`
with this translation so any controller can be levelled transparently;
`examples/endurance_study.py --wear-level` shows the effect on the
maximum-wear line.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nvm.memory import AccessResult, NvmMainMemory


@dataclass(frozen=True)
class StartGapConfig:
    """Start-Gap parameters.

    ``gap_interval`` trades levelling rate against write overhead: the gap
    moves once per that many data writes, adding 1/gap_interval extra
    writes (the original paper uses 100 ⇒ 1 % overhead).
    """

    gap_interval: int = 100

    def __post_init__(self) -> None:
        if self.gap_interval < 1:
            raise ValueError("gap interval must be at least 1")


class StartGapMapper:
    """Pure address-translation state machine (separately testable)."""

    def __init__(self, region_lines: int, config: StartGapConfig | None = None) -> None:
        if region_lines < 1:
            raise ValueError("region must contain at least one line")
        self.region_lines = region_lines
        self.slots = region_lines + 1  # one spare
        self.config = config if config is not None else StartGapConfig()
        self.start = 0
        self.gap = region_lines  # the spare starts at the top slot
        self._writes_since_move = 0
        self.gap_moves = 0
        self.rotations = 0

    def translate(self, logical: int) -> int:
        """Physical slot of a logical line under the current registers.

        Qureshi's formulation: rotate over the N logical lines, then skip
        the gap slot by shifting everything at or past it up by one.
        """
        if not 0 <= logical < self.region_lines:
            raise IndexError(f"logical line {logical} outside region [0, {self.region_lines})")
        slot = (logical + self.start) % self.region_lines
        if slot >= self.gap:
            slot += 1
        return slot

    def record_write(self) -> tuple[int, int] | None:
        """Account one data write; occasionally schedules a gap move.

        Returns None normally, or ``(source_slot, dest_slot)`` when the gap
        moves — the caller must copy that line (the levelling write).
        """
        self._writes_since_move += 1
        if self._writes_since_move < self.config.gap_interval:
            return None
        self._writes_since_move = 0
        self.gap_moves += 1
        if self.gap == 0:
            # Wrap: the top slot's line slides into slot 0, the gap returns
            # to the top, and the rotation register advances.
            self.gap = self.region_lines
            self.start = (self.start + 1) % self.region_lines
            self.rotations += 1
            return self.slots - 1, 0
        source = self.gap - 1
        dest = self.gap
        self.gap = source
        return source, dest

    def mapping_is_bijective(self) -> bool:
        """Whether every logical line maps to a distinct non-gap slot."""
        seen = {self.translate(logical) for logical in range(self.region_lines)}
        return len(seen) == self.region_lines and self.gap not in seen


class WearLevelledNvm:
    """Drop-in NVM facade adding Start-Gap levelling over a device region.

    Exposes the same ``read``/``write``/``peek`` surface as
    :class:`NvmMainMemory` for line indices inside ``region_lines``;
    everything else (wear, energy, banks, config) delegates to the wrapped
    device.  The levelling copy is issued as a read+write at the current
    time, so its timing and wear costs are fully accounted.
    """

    def __init__(
        self,
        nvm: NvmMainMemory,
        region_lines: int | None = None,
        config: StartGapConfig | None = None,
    ) -> None:
        total = nvm.config.organization.total_lines
        if region_lines is None:
            region_lines = total - 1
        if region_lines + 1 > total:
            raise ValueError("region (plus the spare slot) exceeds the device")
        self._nvm = nvm
        self.mapper = StartGapMapper(region_lines, config)
        self.levelling_writes = 0

    # -- delegated surface ---------------------------------------------------

    @property
    def config(self):
        """Wrapped device configuration."""
        return self._nvm.config

    @property
    def wear(self):
        """Wrapped device wear tracker."""
        return self._nvm.wear

    @property
    def energy(self):
        """Wrapped device energy account."""
        return self._nvm.energy

    @property
    def banks(self):
        """Wrapped device banks."""
        return self._nvm.banks

    @property
    def reads(self) -> int:
        """Reads serviced by the device."""
        return self._nvm.reads

    @property
    def writes(self) -> int:
        """Writes serviced by the device."""
        return self._nvm.writes

    def mean_bank_wait_ns(self) -> float:
        """Wrapped device queueing statistic."""
        return self._nvm.mean_bank_wait_ns()

    def peak_backlog_ns(self) -> float:
        """Wrapped device queueing statistic."""
        return self._nvm.peak_backlog_ns()

    @property
    def last_start_ns(self) -> float:
        """Service start of the latest data access (see ``NvmMainMemory``)."""
        return self._nvm.last_start_ns

    @property
    def tracer(self):
        """Wrapped device tracer (controllers attach through the facade)."""
        return self._nvm.tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._nvm.tracer = tracer

    @property
    def timeline(self):
        """Wrapped device timeline collector (attached through the facade)."""
        return self._nvm.timeline

    @timeline.setter
    def timeline(self, timeline) -> None:
        self._nvm.timeline = timeline

    # -- levelled accesses -------------------------------------------------------

    def read(self, address: int, arrival_ns: float, *, trace: bool = True) -> AccessResult:
        """Read through the current start/gap translation."""
        return self._nvm.read(self.mapper.translate(address), arrival_ns, trace=trace)

    def write(
        self,
        address: int,
        data: bytes,
        arrival_ns: float,
        bits_written: int | None = None,
    ) -> AccessResult:
        """Write through the translation; occasionally moves the gap."""
        result = self._nvm.write(
            self.mapper.translate(address), data, arrival_ns, bits_written
        )
        self._level(result.complete_ns)
        return result

    def read_complete_ns(self, address: int, arrival_ns: float, *, trace: bool = True) -> float:
        """Slim read through the translation (see ``NvmMainMemory``)."""
        return self._nvm.read_complete_ns(self.mapper.translate(address), arrival_ns, trace=trace)

    def write_complete_ns(
        self,
        address: int,
        value: int,
        arrival_ns: float,
        bits_written: int | None = None,
    ) -> float:
        """Integer write through the translation; occasionally moves the gap."""
        complete = self._nvm.write_complete_ns(
            self.mapper.translate(address), value, arrival_ns, bits_written
        )
        self._level(complete)
        return complete

    def _level(self, now_ns: float) -> None:
        """Count one data write; on a gap move, copy the line into the gap.

        The copy leaves :attr:`last_start_ns` at the data write's start.
        """
        move = self.mapper.record_write()
        if move is not None:
            source, dest = move
            nvm = self._nvm
            start = nvm.last_start_ns
            nvm.write_complete_ns(dest, nvm.peek_int(source), now_ns)
            nvm.last_start_ns = start
            self.levelling_writes += 1

    def peek(self, address: int) -> bytes:
        """Functional read through the translation."""
        return self._nvm.peek(self.mapper.translate(address))

    def peek_int(self, address: int) -> int:
        """Functional integer read through the translation."""
        return self._nvm.peek_int(self.mapper.translate(address))

    def contains(self, address: int) -> bool:
        """Whether the logical line's current slot holds data."""
        return self._nvm.contains(self.mapper.translate(address))
