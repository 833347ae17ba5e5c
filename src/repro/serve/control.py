"""Admission policy: the serve control plane's deterministic backpressure.

:class:`AdmissionPolicy` is applied at stream-synthesis time (per-tenant
quotas, shard slot caps), so backpressure is a property of the seeded
plan, never of execution timing.  Shard-job failures need no custody
protocol here: the runner engine retries a failed job once, and
:func:`repro.serve.service.run_service` raises on any shard that still
fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class AdmissionPolicy:
    """Deterministic backpressure knobs applied at synthesis time.

    ``max_tenant_slots`` caps how many tenants one shard carves address
    space for (0 = unbounded); an over-cap tenant's traffic is
    *rejected*.  ``tenant_quota`` caps admitted accesses per tenant
    (0 = unbounded); over-quota traffic is *deferred*.
    """

    max_tenant_slots: int = 0
    tenant_quota: int = 0

    def __post_init__(self) -> None:
        if self.max_tenant_slots < 0:
            raise ValueError(
                f"max_tenant_slots must be non-negative, got {self.max_tenant_slots}"
            )
        if self.tenant_quota < 0:
            raise ValueError(
                f"tenant_quota must be non-negative, got {self.tenant_quota}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        return {
            "max_tenant_slots": self.max_tenant_slots,
            "tenant_quota": self.tenant_quota,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "AdmissionPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            max_tenant_slots=int(payload["max_tenant_slots"]),
            tenant_quota=int(payload["tenant_quota"]),
        )
