"""Control-plane data model: shard routing and per-tenant address carving.

A tenant's home shard is a pure function of ``(seed, tenant_id)`` — no
directory service, no rebalancing state — so any worker (or a verifier
re-deriving the plan later) routes identically; the hash itself is
:func:`repro.workloads.tenants.tenant_shard`, the one the traffic
synthesizer routes the stream with.  Within a shard the
:class:`TenantRegistry` carves the NVM address space into fixed
``lines_per_tenant`` windows, assigned in first-appearance order; the
registry is therefore a deterministic product of the traffic walk, and
its serialised form travels in service reports for audit.

Both classes round-trip losslessly through ``to_dict``/``from_dict``
(the SIM103 contract every serialisable record in this repo obeys).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.workloads.tenants import tenant_shard

#: Floor on a shard device's line count: keeps the bank geometry sane for
#: near-empty shards (8 banks want more than a handful of lines).
MIN_SHARD_LINES = 4096


@dataclass(frozen=True)
class ShardMap:
    """Seeded stateless tenant → shard routing."""

    shards: int
    seed: int

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")

    def shard_of(self, tenant: int) -> int:
        """Home shard of ``tenant`` (uniform under the 64-bit mixer)."""
        return tenant_shard(self.seed, tenant, self.shards)

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        return {"shards": self.shards, "seed": self.seed}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardMap":
        """Rebuild a shard map from :meth:`to_dict` output."""
        return cls(shards=int(payload["shards"]), seed=int(payload["seed"]))


class TenantRegistry:
    """Per-shard tenant → address-window registry (slots on first use).

    ``max_slots`` > 0 caps how many tenants the shard will carve space
    for; a tenant arriving when the registry is full gets ``None`` (the
    synthesizer counts it as *rejected* — address-space backpressure).
    """

    def __init__(self, lines_per_tenant: int, max_slots: int = 0) -> None:
        if lines_per_tenant < 1:
            raise ValueError(f"lines_per_tenant must be positive, got {lines_per_tenant}")
        if max_slots < 0:
            raise ValueError(f"max_slots must be non-negative, got {max_slots}")
        self.lines_per_tenant = lines_per_tenant
        self.max_slots = max_slots
        self._slots: dict[int, int] = {}

    def slot_of(self, tenant: int) -> int | None:
        """Slot of ``tenant``, assigning the next free one on first use."""
        slot = self._slots.get(tenant)
        if slot is None:
            if self.max_slots and len(self._slots) >= self.max_slots:
                return None
            slot = len(self._slots)
            self._slots[tenant] = slot
        return slot

    def window(self, tenant: int) -> tuple[int, int] | None:
        """``(first_line, lines)`` window of a registered tenant, else None."""
        slot = self._slots.get(tenant)
        if slot is None:
            return None
        return (slot * self.lines_per_tenant, self.lines_per_tenant)

    @property
    def tenants_registered(self) -> int:
        """Tenants holding a carved window."""
        return len(self._slots)

    def capacity_lines(self) -> int:
        """Device lines the carved windows span (before the device floor)."""
        return len(self._slots) * self.lines_per_tenant

    def device_lines(self) -> int:
        """Line count to size the shard's NVM device with."""
        return max(self.capacity_lines(), MIN_SHARD_LINES)

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (slot keys stringified for JSON)."""
        return {
            "lines_per_tenant": self.lines_per_tenant,
            "max_slots": self.max_slots,
            "slots": {str(tenant): slot for tenant, slot in sorted(self._slots.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TenantRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls(
            lines_per_tenant=int(payload["lines_per_tenant"]),
            max_slots=int(payload["max_slots"]),
        )
        for tenant, slot in payload["slots"].items():
            registry._slots[int(tenant)] = int(slot)
        return registry
