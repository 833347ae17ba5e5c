"""Deterministic fault injectors: NVM cell faults and torn metadata flushes.

Both injectors are pure functions of a seed plus the simulated history, so
the same :class:`~repro.faults.plan.FaultPlan` over the same run always
injects the same faults — the property that lets fault campaigns flow
through the content-keyed :mod:`repro.runner` cache.

**Cell faults** model endurance failures at the crash instant: victim
lines are sampled from the population the run actually wrote, weighted by
each line's :meth:`~repro.nvm.wear.WearTracker.writes_to` count (worn
cells fail first), and mutated in place via
:meth:`~repro.nvm.memory.NvmMainMemory.poke` — no bank traffic, no wear,
just silently corrupted cells for recovery to trip over.  After the
audit, :meth:`CellFaultInjector.heal` puts the healthy contents back, so
a crash run can resume past the crash point.

**Flush faults** model dropped or torn metadata persists, honouring the
configured :class:`~repro.core.persistence.MetadataPersistencePolicy`:

- battery-backed — the battery drains the dirty cache; nothing tears;
- write-through — every update is its own NVM persist, so each journal
  event inside the horizon is dropped independently with probability *p*;
- periodic writeback — only the *final* flush batch can tear (earlier
  batches were re-persisted by every later flush), so drops are confined
  to events inside the last completed interval ``(horizon - interval,
  horizon]``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.faults.journal import Event
from repro.faults.plan import CELL_FAULT_MODES
from repro.nvm.memory import NvmMainMemory


@dataclass(frozen=True)
class CellFault:
    """One injected cell fault (machine-readable, travels in reports)."""

    line: int
    mode: str
    bits: tuple[int, ...]
    changed: bool

    def to_dict(self) -> dict[str, object]:
        return {
            "line": self.line,
            "mode": self.mode,
            "bits": list(self.bits),
            "changed": self.changed,
        }


class CellFaultInjector:
    """Wear-correlated stuck-at / disturb faults on NVM lines."""

    def __init__(self, seed: int, faults: int, mode: str = "bit_flip", bits: int = 1) -> None:
        if faults < 0:
            raise ValueError(f"fault count must be non-negative, got {faults}")
        if mode not in CELL_FAULT_MODES:
            raise ValueError(f"mode must be one of {CELL_FAULT_MODES}, got {mode!r}")
        if bits < 1:
            raise ValueError(f"bits per fault must be at least 1, got {bits}")
        self.faults = faults
        self.mode = mode
        self.bits = bits
        self._rng = random.Random(f"{seed}:cell-faults")
        #: Pre-fault contents of every line :meth:`inject` changed.
        self._healthy: dict[int, bytes] = {}

    def _pick_victims(self, nvm: NvmMainMemory, line_limit: int | None) -> list[int]:
        """Distinct victim lines, weighted by accumulated write counts."""
        if self.faults == 0:
            # The pick loop below would draw nothing; skip the wear walk.
            return []
        population = [
            line
            for line in nvm.wear.written_lines()
            if line_limit is None or line < line_limit
        ]
        weights = [nvm.wear.writes_to(line) for line in population]
        victims: list[int] = []
        while population and len(victims) < self.faults:
            # Sequential weighted picks without replacement keep victims
            # distinct while preserving the wear bias.
            [choice] = self._rng.choices(population, weights=weights)
            index = population.index(choice)
            population.pop(index)
            weights.pop(index)
            victims.append(choice)
        return victims

    def inject(self, nvm: NvmMainMemory, line_limit: int | None = None) -> list[CellFault]:
        """Corrupt up to ``faults`` worn lines in place; returns the record.

        ``line_limit`` restricts victims to the data region (recovery never
        reads metadata lines from the array — it replays the journal — so a
        fault there would be invisible to the audit).  A stuck-at fault
        whose target cell already held the stuck value is a silent no-op —
        it is still reported (``changed=False``) because the cell is
        genuinely broken even if this crash didn't expose it.
        """
        line_bits = nvm.config.organization.line_size_bytes * 8
        records: list[CellFault] = []
        for victim in self._pick_victims(nvm, line_limit):
            positions = tuple(sorted(self._rng.sample(range(line_bits), k=min(self.bits, line_bits))))
            healthy = nvm.peek(victim)
            raw = int.from_bytes(healthy, "little")
            faulty = raw
            for bit in positions:
                if self.mode == "bit_flip":
                    faulty ^= 1 << bit
                elif self.mode == "stuck_at_zero":
                    faulty &= ~(1 << bit)
                else:  # stuck_at_one
                    faulty |= 1 << bit
            changed = faulty != raw
            if changed:
                self._healthy[victim] = healthy
                nvm.poke(victim, faulty.to_bytes(line_bits // 8, "little"))
            records.append(
                CellFault(line=victim, mode=self.mode, bits=positions, changed=changed)
            )
        return records

    def heal(self, nvm: NvmMainMemory) -> None:
        """Undo :meth:`inject`: put every changed line's pre-fault contents
        back through :meth:`~repro.nvm.memory.NvmMainMemory.poke` (bytes and
        the integer mirror alike), so a crash run can continue afterwards."""
        for line, data in self._healthy.items():
            nvm.poke(line, data)
        self._healthy.clear()


class FlushFaultModel:
    """Policy-aware dropped/torn metadata persists over the journal."""

    def __init__(
        self,
        persistence: MetadataPersistenceConfig,
        drop_probability: float,
        seed: int,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop probability must be in [0, 1], got {drop_probability}")
        self.persistence = persistence
        self.drop_probability = drop_probability
        self._rng = random.Random(f"{seed}:flush-faults")

    @property
    def may_drop(self) -> bool:
        """Whether any event can be dropped (battery-backed never tears)."""
        return (
            self.drop_probability > 0.0
            and self.persistence.policy is not MetadataPersistencePolicy.BATTERY_BACKED
        )

    def _droppable(self, event: Event, horizon_ns: float) -> bool:
        policy = self.persistence.policy
        if policy is MetadataPersistencePolicy.BATTERY_BACKED:
            return False
        if policy is MetadataPersistencePolicy.WRITE_THROUGH:
            return True
        # Periodic writeback: only the last flush batch can tear.
        return event[0] > horizon_ns - self.persistence.writeback_interval_ns

    def retained(
        self, events: Sequence[Event], horizon_ns: float
    ) -> tuple[list[Event], list[Event]]:
        """Split the durable prefix of the journal into (kept, dropped).

        Events past ``horizon_ns`` were never persisted and are excluded
        from both lists — they are crash losses, not flush faults.  With
        no drop probability nothing is drawn, so the split is the horizon
        cut alone.
        """
        if self.drop_probability == 0.0:
            return [event for event in events if event[0] <= horizon_ns], []
        kept: list[Event] = []
        dropped: list[Event] = []
        for event in events:
            if event[0] > horizon_ns:
                continue
            if self._droppable(event, horizon_ns) and self._rng.random() < self.drop_probability:
                dropped.append(event)
            else:
                kept.append(event)
        return kept, dropped
