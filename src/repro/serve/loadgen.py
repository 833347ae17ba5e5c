"""`repro loadgen` — inspect the seeded million-tenant traffic plan.

Synthesizes every shard's stream through exactly the code path the
service uses (:func:`repro.workloads.tenants.synthesize_shard_stream`
with the same routing, registry and admission policy) but runs **no
simulation**: the output is the plan itself — per-shard tenant/access
balance, admission outcomes, and a content fingerprint census that
predicts the dedup ratio the service will observe.  Because synthesis is
a pure function of the config, the plan a loadgen prints is byte-for-byte
the traffic a subsequent ``repro serve`` of the same config drives.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

from repro.serve.control import AdmissionPolicy
from repro.serve.tenants import TenantRegistry
from repro.workloads.tenants import TenantTrafficConfig, synthesize_shard_stream


@dataclass(frozen=True)
class ShardLoad:
    """One shard's synthesized plan accounting."""

    shard: int
    tenants: int
    offered: int
    admitted: int
    deferred: int
    rejected: int
    writes: int
    reads: int

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        return {
            "shard": self.shard,
            "tenants": self.tenants,
            "offered": self.offered,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "writes": self.writes,
            "reads": self.reads,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardLoad":
        """Rebuild a shard load from :meth:`to_dict` output."""
        return cls(
            shard=int(payload["shard"]),
            tenants=int(payload["tenants"]),
            offered=int(payload["offered"]),
            admitted=int(payload["admitted"]),
            deferred=int(payload["deferred"]),
            rejected=int(payload["rejected"]),
            writes=int(payload["writes"]),
            reads=int(payload["reads"]),
        )


@dataclass(frozen=True)
class LoadPlan:
    """The full synthesized plan across every shard."""

    config: dict[str, Any]
    shards: tuple[ShardLoad, ...]
    distinct_tenants: int
    duplicate_write_fraction: float

    @property
    def accesses(self) -> int:
        """Admitted accesses across every shard."""
        return sum(shard.admitted for shard in self.shards)

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        return {
            "config": dict(self.config),
            "shards": [shard.to_dict() for shard in self.shards],
            "distinct_tenants": self.distinct_tenants,
            "duplicate_write_fraction": self.duplicate_write_fraction,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LoadPlan":
        """Rebuild a plan from :meth:`to_dict` output."""
        return cls(
            config=dict(payload["config"]),
            shards=tuple(ShardLoad.from_dict(entry) for entry in payload["shards"]),
            distinct_tenants=int(payload["distinct_tenants"]),
            duplicate_write_fraction=float(payload["duplicate_write_fraction"]),
        )

    def render(self) -> str:
        """Human-readable plan summary (the ``repro loadgen`` stdout)."""
        offered = sum(shard.offered for shard in self.shards)
        deferred = sum(shard.deferred for shard in self.shards)
        rejected = sum(shard.rejected for shard in self.shards)
        writes = sum(shard.writes for shard in self.shards)
        reads = sum(shard.reads for shard in self.shards)
        lines = [
            f"plan: {len(self.shards)} shard(s), {self.distinct_tenants} "
            f"distinct tenant(s), {self.accesses} access(es) "
            f"({writes} writes, {reads} reads)",
            f"  admission: {offered} offered, {self.accesses} admitted, "
            f"{deferred} deferred, {rejected} rejected",
            f"  predicted duplicate-write fraction: "
            f"{self.duplicate_write_fraction:.4f}",
            "  shard  tenants   offered  admitted  deferred  rejected",
        ]
        for shard in self.shards:
            lines.append(
                f"  {shard.shard:>5}  {shard.tenants:>7}  {shard.offered:>8}  "
                f"{shard.admitted:>8}  {shard.deferred:>8}  {shard.rejected:>8}"
            )
        return "\n".join(lines)


def build_load_plan(
    traffic: TenantTrafficConfig,
    policy: AdmissionPolicy,
    shards: int,
) -> LoadPlan:
    """Synthesize every shard's stream and fold the plan census.

    The duplicate-write fraction is a whole-pool census over CRC32 content
    fingerprints: a write whose line content was already written anywhere
    in the pool counts as a duplicate.  It *predicts* (upper-bounds) the
    service's dedup ratio — the controller additionally needs the prior
    copy resident and referenceable at service time.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    loads: list[ShardLoad] = []
    seen: set[int] = set()
    total_writes = 0
    duplicate_writes = 0
    distinct_tenants = 0
    for shard in range(shards):
        registry = TenantRegistry(
            traffic.lines_per_tenant, max_slots=policy.max_tenant_slots
        )
        stream = synthesize_shard_stream(
            traffic,
            shard=shard,
            shards=shards,
            registry=registry,
            tenant_quota=policy.tenant_quota,
        )
        writes = 0
        for _address, data in stream.batch.write_pairs():
            writes += 1
            fingerprint = zlib.crc32(data)
            if fingerprint in seen:
                duplicate_writes += 1
            else:
                seen.add(fingerprint)
        loads.append(
            ShardLoad(
                shard=shard,
                tenants=stream.tenants_seen,
                offered=stream.offered,
                admitted=stream.admitted,
                deferred=stream.deferred,
                rejected=stream.rejected,
                writes=writes,
                reads=stream.admitted - writes,
            )
        )
        total_writes += writes
        distinct_tenants += registry.tenants_registered
    config = {
        "traffic": traffic.to_dict(),
        "policy": policy.to_dict(),
        "shards": shards,
    }
    return LoadPlan(
        config=config,
        shards=tuple(loads),
        distinct_tenants=distinct_tenants,
        duplicate_write_fraction=(
            duplicate_writes / total_writes if total_writes else 0.0
        ),
    )
