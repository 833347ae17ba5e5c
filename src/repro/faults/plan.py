"""Seeded, sim-time-driven fault plans.

A :class:`FaultPlan` is the complete, deterministic description of what
goes wrong during one simulated run:

- **power loss** — the crash point, either an absolute sim time
  (``power_loss_ns``: the first request arriving at or after that instant
  never issues) or a request ordinal (``power_loss_at_access``: the run
  dies before the Nth access).  With neither set, power is pulled at the
  end of the trace — a clean-shutdown-without-flush scenario.
- **cell faults** — ``cell_faults`` worn NVM lines suffer stuck-at or
  disturb (bit-flip) faults at the crash instant, victim lines sampled
  proportionally to their :class:`~repro.nvm.wear.WearTracker` write
  counts (endurance failures hit the hottest cells first).
- **flush faults** — ``flush_drop_probability`` models dropped or torn
  metadata persists, honoring the configured
  :class:`~repro.core.persistence.MetadataPersistencePolicy` (see
  :class:`repro.faults.injectors.FlushFaultModel` for the per-policy
  semantics; battery-backed drains are never torn).

Everything is derived from ``seed``: the same plan over the same trace
and controller yields a byte-identical
:class:`~repro.faults.audit.ConsistencyReport`, which is what lets fault
campaigns run through the content-keyed :mod:`repro.runner` cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

#: Cell-fault modes: disturb (toggle) vs stuck-at (force a value).
CELL_FAULT_MODES = ("bit_flip", "stuck_at_zero", "stuck_at_one")

#: Policy grid of the paper's §V survey, in comparison order.
DEFAULT_POLICIES = ("battery_backed", "write_through", "periodic_writeback")

#: Default crash points, as fractions of the trace length.
DEFAULT_POINTS = (0.25, 0.5, 0.9)


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic fault scenario (see the module docstring)."""

    seed: int = 1
    power_loss_ns: float | None = None
    power_loss_at_access: int | None = None
    cell_faults: int = 0
    cell_fault_mode: str = "bit_flip"
    cell_fault_bits: int = 1
    flush_drop_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.power_loss_ns is not None and self.power_loss_ns < 0:
            raise ValueError(f"power_loss_ns must be non-negative, got {self.power_loss_ns}")
        if self.power_loss_at_access is not None and self.power_loss_at_access < 1:
            raise ValueError(
                f"power_loss_at_access must be at least 1, got {self.power_loss_at_access}"
            )
        if self.cell_faults < 0:
            raise ValueError(f"cell_faults must be non-negative, got {self.cell_faults}")
        if self.cell_fault_mode not in CELL_FAULT_MODES:
            raise ValueError(
                f"cell_fault_mode must be one of {CELL_FAULT_MODES}, "
                f"got {self.cell_fault_mode!r}"
            )
        if self.cell_fault_bits < 1:
            raise ValueError(f"cell_fault_bits must be at least 1, got {self.cell_fault_bits}")
        if not 0.0 <= self.flush_drop_probability <= 1.0:
            raise ValueError(
                f"flush_drop_probability must be in [0, 1], "
                f"got {self.flush_drop_probability}"
            )

    def to_dict(self) -> dict[str, Any]:
        """JSON-shaped form (travels inside job specs and cache keys)."""
        return {
            "seed": self.seed,
            "power_loss_ns": self.power_loss_ns,
            "power_loss_at_access": self.power_loss_at_access,
            "cell_faults": self.cell_faults,
            "cell_fault_mode": self.cell_fault_mode,
            "cell_fault_bits": self.cell_fault_bits,
            "flush_drop_probability": self.flush_drop_probability,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict` (validates on construction)."""
        return cls(
            seed=int(payload["seed"]),
            power_loss_ns=(
                None if payload.get("power_loss_ns") is None
                else float(payload["power_loss_ns"])
            ),
            power_loss_at_access=(
                None if payload.get("power_loss_at_access") is None
                else int(payload["power_loss_at_access"])
            ),
            cell_faults=int(payload.get("cell_faults", 0)),
            cell_fault_mode=str(payload.get("cell_fault_mode", "bit_flip")),
            cell_fault_bits=int(payload.get("cell_fault_bits", 1)),
            flush_drop_probability=float(payload.get("flush_drop_probability", 0.0)),
        )
