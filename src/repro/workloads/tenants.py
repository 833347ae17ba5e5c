"""Multi-tenant traffic synthesis for the serve data plane.

``repro serve`` drives one encrypted NVM pool on behalf of up to millions
of simulated tenants; this module synthesizes each shard's access stream
directly into the columnar :class:`~repro.workloads.batch.AccessBatch`
the fused ``service_batch`` kernels consume.  Three properties are
load-bearing:

- **Counter-based determinism.**  Every decision (which tenant issues
  global access *i*, read vs write, address offset, line content, gap)
  is a pure function of ``(seed, i)`` through the splitmix64-style
  :func:`mix64` finaliser — there is no sequential RNG state.  The
  global stream is routed to shards once per process by
  :func:`route_accesses` (one memoised pass over the access counter),
  and each shard then synthesizes only the indices it owns, so the
  traffic is identical whatever the shard count, worker count or
  execution order.

- **Controlled cross-tenant overlap.**  Each write draws its line either
  from a small shared content pool (probability ``content_overlap``) or
  from tenant-private content, so the cross-tenant dedup ratio the
  service reports is a *controlled variable* of the experiment, not an
  accident of the generator.

- **Single-stream shape.**  Every access issues from core 0, so a serve
  shard's batches need no stream merge (zero ``batch.fallback.*``).

Tenant popularity is zipfian via the continuous inverse-CDF
approximation (rank ``~ u^(-1/(s-1))`` shape), the standard choice when
the population is too large to materialise a CDF table.

**Exactness contract.**  :func:`route_accesses` and
:func:`synthesize_shard_stream` are each one loop with no Python-level
call per access (only the registry's ``slot_of``, at a tenant's first
admitted access or a rejected one): every draw is :func:`mix64` of a hoisted ``(seed,
salt)`` prefix, computed as one inlined splitmix64 round on that prefix
(integer arithmetic, so identical on every CPython), and every access is
appended straight into the batch columns.  Routing draws a tenant's home
shard (:func:`tenant_shard`) the same way, once per tenant.  A tenant's
address-draw prefix ``mix64(seed, _SALT_ADDRESS, tenant)`` and its
registry slot are folded once, at its first admitted access; a write's
line is :func:`tenant_line` with the key packer and tiling hoisted.  The
pure functions stay the definition: ``tests/workloads/test_tenants.py``
replays a per-index reference walk built from them, and
``tests/workloads/test_trace_goldens.py`` pins every shard's columns.

The synthesizer is deliberately decoupled from the control plane: the
shard-routing hash lives here (:func:`tenant_shard`, which
:class:`repro.serve.tenants.ShardMap` delegates to) and the slot registry
is passed in as a plain object, so the workloads layer never imports the
serve subsystem.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, NamedTuple, Protocol

from repro.workloads.batch import OP_READ, OP_WRITE, AccessBatch, BatchBuilder

_MASK64 = (1 << 64) - 1
_UNIT = 2.0**64

# Domain-separation salts: one per decision stream, so e.g. the op choice
# of access i is independent of its gap draw.
_SALT_TENANT = 0x01
_SALT_OP = 0x02
_SALT_ADDRESS = 0x03
_SALT_GAP = 0x04
_SALT_PERSIST = 0x05
_SALT_POOL = 0x06
_SALT_POOL_PICK = 0x07
# Shard routing, distinct from every traffic salt so routing never
# correlates with content or op draws.
_SALT_SHARD = 0x5D


def mix64(*parts: int) -> int:
    """Stateless 64-bit mixer (splitmix64 finaliser folded over ``parts``).

    The serve subsystem derives *all* of its randomness from this: tenant
    draws, shard routing, address offsets and content choices.  Unlike a
    sequential ``random.Random``, any single decision is addressable in
    O(1), which is what lets a shard synthesize only the accesses it owns
    without replaying anyone else's draws.
    """
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value + part) & _MASK64
        value ^= value >> 30
        value = (value * 0xBF58476D1CE4E5B9) & _MASK64
        value ^= value >> 27
        value = (value * 0x94D049BB133111EB) & _MASK64
        value ^= value >> 31
    return value


def mix01(*parts: int) -> float:
    """Uniform float in [0, 1) derived from :func:`mix64`."""
    return mix64(*parts) / _UNIT


def zipf_rank(u: float, population: int, s: float) -> int:
    """Map a uniform draw to a zipf(s)-distributed rank in [0, population).

    Continuous inverse-CDF approximation over ranks ``[1, population+1)``;
    exact enough for traffic shaping (rank 0 is the hottest tenant), and
    O(1) per draw for populations of millions where a CDF table would be
    prohibitive.  ``s == 1`` uses the logarithmic closed form.
    """
    if population < 1:
        raise ValueError(f"population must be positive, got {population}")
    if population == 1:
        return 0
    top = float(population + 1)
    if abs(s - 1.0) < 1e-9:
        rank = int(top**u)
    else:
        exponent = 1.0 - s
        rank = int((1.0 + u * (top**exponent - 1.0)) ** (1.0 / exponent))
    return min(max(rank - 1, 0), population - 1)


def tenant_shard(seed: int, tenant: int, shards: int) -> int:
    """Home shard of ``tenant`` among ``shards`` (uniform under the mixer)."""
    return mix64(seed, _SALT_SHARD, tenant) % shards


class SlotRegistry(Protocol):
    """What the synthesizer needs from a tenant registry.

    :class:`repro.serve.tenants.TenantRegistry` is the real implementation;
    the protocol keeps the workloads layer import-free of the serve
    control plane.
    """

    def slot_of(self, tenant: int) -> int | None:
        """Slot for ``tenant`` (assigned on first use), or ``None`` when full."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class TenantTrafficConfig:
    """Knobs of the seeded multi-tenant traffic model.

    ``accesses`` is the *global* interleaved budget across every tenant
    and shard; ``tenants`` is the addressable population the zipfian
    draws range over (most of a million-tenant population never appears
    in a bounded budget — that is the point of the popularity skew).
    """

    tenants: int = 1_000_000
    accesses: int = 250_000
    seed: int = 7
    zipf_s: float = 1.1
    content_overlap: float = 0.35
    shared_pool_lines: int = 4096
    lines_per_tenant: int = 64
    read_fraction: float = 0.3
    persistent_fraction: float = 0.05
    max_gap: int = 64
    line_size: int = 256

    def __post_init__(self) -> None:
        if self.tenants < 1:
            raise ValueError(f"tenants must be positive, got {self.tenants}")
        if self.accesses < 0:
            raise ValueError(f"accesses must be non-negative, got {self.accesses}")
        if self.zipf_s <= 0:
            raise ValueError(f"zipf_s must be positive, got {self.zipf_s}")
        for name in ("content_overlap", "read_fraction", "persistent_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.shared_pool_lines < 1:
            raise ValueError(
                f"shared_pool_lines must be positive, got {self.shared_pool_lines}"
            )
        if self.lines_per_tenant < 1:
            raise ValueError(
                f"lines_per_tenant must be positive, got {self.lines_per_tenant}"
            )
        if self.max_gap < 0:
            raise ValueError(f"max_gap must be non-negative, got {self.max_gap}")
        if self.line_size < 16 or self.line_size % 16:
            raise ValueError(
                f"line_size must be a positive multiple of 16, got {self.line_size}"
            )

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (job params / service config)."""
        return {
            "tenants": self.tenants,
            "accesses": self.accesses,
            "seed": self.seed,
            "zipf_s": self.zipf_s,
            "content_overlap": self.content_overlap,
            "shared_pool_lines": self.shared_pool_lines,
            "lines_per_tenant": self.lines_per_tenant,
            "read_fraction": self.read_fraction,
            "persistent_fraction": self.persistent_fraction,
            "max_gap": self.max_gap,
            "line_size": self.line_size,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TenantTrafficConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            tenants=int(payload["tenants"]),
            accesses=int(payload["accesses"]),
            seed=int(payload["seed"]),
            zipf_s=float(payload["zipf_s"]),
            content_overlap=float(payload["content_overlap"]),
            shared_pool_lines=int(payload["shared_pool_lines"]),
            lines_per_tenant=int(payload["lines_per_tenant"]),
            read_fraction=float(payload["read_fraction"]),
            persistent_fraction=float(payload["persistent_fraction"]),
            max_gap=int(payload["max_gap"]),
            line_size=int(payload["line_size"]),
        )


class ShardRoute(NamedTuple):
    """The global accesses one shard owns, as parallel ``array`` columns.

    ``indices`` are global access indices in increasing order; ``tenants``
    holds the tenant that issues each one.
    """

    indices: array
    tenants: array


@lru_cache(maxsize=1)
def route_accesses(config: TenantTrafficConfig, shards: int) -> tuple[ShardRoute, ...]:
    """Route the global access stream to ``shards`` shards in one pass.

    Draws the issuing tenant of every global access and appends the
    access to its tenant's home shard (:func:`tenant_shard`), so every
    index in ``range(config.accesses)`` lands in exactly one route.

    Memoised per process (the config is frozen, hence hashable): the
    shard jobs a worker runs for one service share a single walk.  The
    returned arrays are shared by every caller and must not be mutated.
    """
    if shards < 1:
        raise ValueError(f"shards must be positive, got {shards}")
    routes = tuple(ShardRoute(array("q"), array("q")) for _ in range(shards))
    home: dict[int, ShardRoute] = {}
    prefix = mix64(config.seed, _SALT_TENANT)
    shard_prefix = mix64(config.seed, _SALT_SHARD)
    # zipf_rank with its per-population constants hoisted; the float
    # expressions are the same, so the ranks are bit-identical.
    top = float(config.tenants + 1)
    last = config.tenants - 1
    logarithmic = abs(config.zipf_s - 1.0) < 1e-9
    if logarithmic:
        span = inverse = 0.0
    else:
        exponent = 1.0 - config.zipf_s
        span = top**exponent - 1.0
        inverse = 1.0 / exponent
    for index in range(config.accesses):
        # mix64(seed, _SALT_TENANT, index): one inlined round on the prefix.
        u = (prefix + index) & _MASK64
        u ^= u >> 30
        u = (u * 0xBF58476D1CE4E5B9) & _MASK64
        u ^= u >> 27
        u = (u * 0x94D049BB133111EB) & _MASK64
        u = (u ^ u >> 31) / _UNIT
        rank = int(top**u) if logarithmic else int((1.0 + u * span) ** inverse)
        tenant = min(max(rank - 1, 0), last)
        route = home.get(tenant)
        if route is None:
            # tenant_shard: mix64(seed, _SALT_SHARD, tenant) % shards.
            shard = (shard_prefix + tenant) & _MASK64
            shard ^= shard >> 30
            shard = (shard * 0xBF58476D1CE4E5B9) & _MASK64
            shard ^= shard >> 27
            shard = (shard * 0x94D049BB133111EB) & _MASK64
            route = home[tenant] = routes[(shard ^ shard >> 31) % shards]
        route.indices.append(index)
        route.tenants.append(tenant)
    return routes


@dataclass(frozen=True)
class ShardStream:
    """One shard's synthesized stream plus its admission accounting.

    ``offered`` counts the global accesses routed to this shard;
    ``admitted`` made it into the batch; ``deferred`` hit a per-tenant
    quota; ``rejected`` belonged to tenants the shard had no address
    slot left for.  ``offered == admitted + deferred + rejected`` always.
    """

    shard: int
    batch: AccessBatch
    tenants_seen: int
    offered: int
    admitted: int
    deferred: int
    rejected: int


def tenant_line(seed: int, *key: int, line_size: int = 256) -> bytes:
    """Deterministic line content for one ``(seed, *key)`` identity.

    One SHA-256 over the packed key, tiled to the line size — enough
    entropy that distinct keys never collide in practice, cheap enough
    to run once per synthesized write (:func:`synthesize_shard_stream`
    computes the same expression inline).
    """
    packed = struct.pack(f"<{len(key) + 1}q", seed, *key)
    digest = hashlib.sha256(packed).digest()
    repeats = (line_size + len(digest) - 1) // len(digest)
    return (digest * repeats)[:line_size]


def synthesize_shard_stream(
    config: TenantTrafficConfig,
    *,
    shard: int,
    shards: int,
    registry: SlotRegistry,
    tenant_quota: int = 0,
) -> ShardStream:
    """Synthesize shard ``shard``'s slice of the global tenant stream.

    Consumes only the accesses :func:`route_accesses` gives ``shard``
    among ``shards``, in global order, so the union of every shard's
    stream is the full interleaved trace and each access appears in
    exactly one shard whatever the shard count.

    ``registry`` carves the shard's address space: each admitted tenant
    gets a ``lines_per_tenant`` window at its slot, assigned in first-
    appearance order (deterministic, since the route is in global
    order).  ``tenant_quota`` > 0 defers accesses beyond that many per
    tenant — the control plane's per-tenant backpressure, applied at
    synthesis time so it is a property of the plan, not of execution.

    A tenant's first admitted access is always a write (reads target the
    tenant's last written line, so there is always something to read).
    ``registry.slot_of`` is asked once per admitted tenant, since a
    registered tenant's slot never changes; a tenant it turned away is
    asked again at its next access.
    """
    if not 0 <= shard < shards:
        raise ValueError(f"shard must be in [0, {shards}), got {shard}")
    if tenant_quota < 0:
        raise ValueError(f"tenant_quota must be non-negative, got {tenant_quota}")

    route = route_accesses(config, shards)[shard]
    seed = config.seed
    gap_prefix = mix64(seed, _SALT_GAP)
    op_prefix = mix64(seed, _SALT_OP)
    address_prefix = mix64(seed, _SALT_ADDRESS)
    pool_prefix = mix64(seed, _SALT_POOL)
    pick_prefix = mix64(seed, _SALT_POOL_PICK)
    persist_prefix = mix64(seed, _SALT_PERSIST)
    gap_span = config.max_gap + 1
    read_fraction = config.read_fraction
    lines_per_tenant = config.lines_per_tenant
    content_overlap = config.content_overlap
    shared_pool_lines = config.shared_pool_lines
    persistent_fraction = config.persistent_fraction
    line_size = config.line_size
    # tenant_line, hoisted: the packed key's sha256, tiled to the line.
    sha256 = hashlib.sha256
    pack_pool = struct.Struct("<2q").pack
    pack_private = struct.Struct("<3q").pack
    tiles = -(-line_size // 32)

    builder = BatchBuilder(line_size=line_size)
    ops = builder.ops.append
    cores = builder.cores.append
    addresses = builder.addresses.append
    gaps = builder.gaps.append
    persistent = builder.persistent.append
    slots = builder.slots.append
    payload = builder.payload
    pool_cache: dict[int, bytes] = {}
    # Admitted tenant -> [window base line, admitted accesses, last written
    # line (-1 before the first write), address-draw prefix].
    tenants: dict[int, list[int]] = {}
    deferred = rejected = 0

    # Every draw below is mix64(seed, salt, ...) folded from its hoisted
    # prefix by one inlined splitmix64 round.
    for index, tenant in zip(route.indices, route.tenants):
        state = tenants.get(tenant)
        if state is None:
            slot = registry.slot_of(tenant)
            if slot is None:
                rejected += 1
                continue
            prefix = (address_prefix + tenant) & _MASK64
            prefix ^= prefix >> 30
            prefix = (prefix * 0xBF58476D1CE4E5B9) & _MASK64
            prefix ^= prefix >> 27
            prefix = (prefix * 0x94D049BB133111EB) & _MASK64
            state = tenants[tenant] = [slot * lines_per_tenant, 0, -1, prefix ^ prefix >> 31]
        elif tenant_quota and state[1] >= tenant_quota:
            deferred += 1
            continue
        base, used, last, prefix = state

        gap = (gap_prefix + index) & _MASK64
        gap ^= gap >> 30
        gap = (gap * 0xBF58476D1CE4E5B9) & _MASK64
        gap ^= gap >> 27
        gap = (gap * 0x94D049BB133111EB) & _MASK64
        gaps((gap ^ gap >> 31) % gap_span)
        cores(0)
        if last >= 0:
            op = (op_prefix + index) & _MASK64
            op ^= op >> 30
            op = (op * 0xBF58476D1CE4E5B9) & _MASK64
            op ^= op >> 27
            op = (op * 0x94D049BB133111EB) & _MASK64
            write = (op ^ op >> 31) / _UNIT >= read_fraction
        else:
            write = True  # a tenant's first admitted access
        if write:
            offset = (prefix + used) & _MASK64
            offset ^= offset >> 30
            offset = (offset * 0xBF58476D1CE4E5B9) & _MASK64
            offset ^= offset >> 27
            offset = (offset * 0x94D049BB133111EB) & _MASK64
            last = state[2] = base + (offset ^ offset >> 31) % lines_per_tenant
            pool = (pool_prefix + index) & _MASK64
            pool ^= pool >> 30
            pool = (pool * 0xBF58476D1CE4E5B9) & _MASK64
            pool ^= pool >> 27
            pool = (pool * 0x94D049BB133111EB) & _MASK64
            if (pool ^ pool >> 31) / _UNIT < content_overlap:
                pick = (pick_prefix + index) & _MASK64
                pick ^= pick >> 30
                pick = (pick * 0xBF58476D1CE4E5B9) & _MASK64
                pick ^= pick >> 27
                pick = (pick * 0x94D049BB133111EB) & _MASK64
                pick = (pick ^ pick >> 31) % shared_pool_lines
                data = pool_cache.get(pick)
                if data is None:
                    data = pool_cache[pick] = (
                        sha256(pack_pool(seed, pick)).digest() * tiles
                    )[:line_size]
            else:
                data = (sha256(pack_private(seed, tenant, used)).digest() * tiles)[:line_size]
            flag = (persist_prefix + index) & _MASK64
            flag ^= flag >> 30
            flag = (flag * 0xBF58476D1CE4E5B9) & _MASK64
            flag ^= flag >> 27
            flag = (flag * 0x94D049BB133111EB) & _MASK64
            ops(OP_WRITE)
            addresses(last)
            persistent((flag ^ flag >> 31) / _UNIT < persistent_fraction)
            slots(len(payload))
            payload += data
        else:
            ops(OP_READ)
            addresses(last)
            persistent(0)
            slots(-1)
        state[1] = used + 1

    offered = len(route.indices)
    return ShardStream(
        shard=shard,
        batch=builder.build(),
        tenants_seen=len(tenants),
        offered=offered,
        admitted=offered - deferred - rejected,
        deferred=deferred,
        rejected=rejected,
    )
