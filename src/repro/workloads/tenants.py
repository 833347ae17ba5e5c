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
  global stream is routed to shards by :func:`route_accesses` (one
  memoised pass over the access counter, which a pooled service run
  makes in its dispatching process so the forked workers inherit it),
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
:func:`synthesize_shard_stream` are each one pass (a loop over
:data:`COLUMN_LANES`-access chunks around the per-access loop) with no
Python-level call per access (only the registry's ``slot_of``, at a
tenant's first admitted access or a rejected one), appending every
access straight into the batch columns.  Every draw is :func:`mix64` of a hoisted ``(seed,
salt)`` prefix plus one key, i.e. one splitmix64 round on ``prefix +
key``, in integer arithmetic, so identical on every CPython.  The draws
keyed by a global index (the tenant draw of every index while routing;
the gap, op, pool, pick and persist draws of a shard's indices) are
columns from :func:`mix64_chunks`, which mixes up to
:data:`COLUMN_LANES` keys at once in the 128-bit lanes of one Python
int through :func:`repro.crypto.otp.swar_finalise`; a shard computes
every column for every routed index and reads only the draws the
access uses, so the draws are the same whichever branch it takes.  The
per-tenant draws stay one inlined round each: a tenant's home shard
(:func:`tenant_shard`), once per tenant while routing; its address-draw
prefix ``mix64(seed, _SALT_ADDRESS, tenant)`` and registry slot, folded
once at its first admitted access; and each write's offset.  A write's
line is :func:`tenant_line` with the key packer and tiling hoisted.  The
pure functions stay the definition: ``tests/workloads/test_tenants.py``
replays a per-index reference walk built from them and checks
:func:`mix64_chunks` lane for lane against :func:`mix64`, and
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
import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Iterator, NamedTuple, Protocol, Sequence

from repro.crypto.otp import swar_finalise
from repro.workloads.batch import OP_READ, OP_WRITE, AccessBatch, BatchBuilder

_MASK64 = (1 << 64) - 1
_UNIT = 2.0**64

#: Most lanes one SWAR pass of :func:`mix64_chunks` packs: a 512-lane
#: value is an 8 KiB int, and the draw columns a caller holds at once stay
#: this short whatever the access budget.
COLUMN_LANES = 512
_LANE_UNIT = sum(1 << (128 * lane) for lane in range(COLUMN_LANES))
_LANE_MASK = _LANE_UNIT * _MASK64
_BYTESWAP = sys.byteorder != "little"

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


def mix64_chunks(keys: Sequence[int], *prefixes: int) -> Iterator[tuple[array, ...]]:
    """Draw columns over ``keys``, :data:`COLUMN_LANES` keys at a time.

    Yields, per chunk of ``keys``, one ``array("Q")`` column per prefix:
    for a prefix ``p = mix64(*parts)``, entry ``i`` of its column is
    ``mix64(*parts, key)`` of the chunk's ``i``-th key, which is one
    splitmix64 round on ``(p + key) mod 2^64``.  The chunk's keys (each in
    ``[0, 2^64)``) are packed into the 128-bit lanes of one Python int,
    each prefix is broadcast onto them and the lanes are mixed together by
    :func:`repro.crypto.otp.swar_finalise` — a handful of C-level big-int
    operations per chunk instead of six interpreted ones per draw.
    Integer arithmetic throughout, so the columns equal the scalar
    :func:`mix64` bit for bit on every interpreter; chunking bounds what a
    caller holds at once whatever the length of ``keys``.
    """
    broadcasts = [prefix * _LANE_UNIT for prefix in prefixes]
    lane_mask = _LANE_MASK
    for start in range(0, len(keys), COLUMN_LANES):
        chunk = array("Q", keys[start : start + COLUMN_LANES])
        lanes = len(chunk)
        if lanes < COLUMN_LANES:
            lane_mask = _LANE_MASK & ((1 << (128 * lanes)) - 1)
        packed = array("Q", bytes(16 * lanes))
        packed[::2] = chunk
        if _BYTESWAP:
            packed.byteswap()
        x = int.from_bytes(packed, "little")
        columns = []
        for broadcast in broadcasts:
            mixed = swar_finalise((x + broadcast) & lane_mask, lane_mask)
            words = array("Q", mixed.to_bytes(16 * lanes, "little"))
            if _BYTESWAP:
                words.byteswap()
            columns.append(words[::2])
        yield tuple(columns)


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
    shard jobs a process runs for one service share a single walk, and a
    pooled service run makes that walk before its workers fork, so they
    inherit it.  The returned arrays are shared by every caller and must
    not be mutated.
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
    index = 0
    # The tenant draw mix64(seed, _SALT_TENANT, index) of every index, as
    # SWAR columns.
    for (draws,) in mix64_chunks(range(config.accesses), prefix):
        for draw in draws:
            u = draw / _UNIT
            rank = int(top**u) if logarithmic else int((1.0 + u * span) ** inverse)
            # min(max(rank - 1, 0), last) without the two builtin calls.
            tenant = rank - 1
            if tenant < 0:
                tenant = 0
            elif tenant > last:
                tenant = last
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
            index += 1
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

    # The gap, op, pool, pick and persist draws mix64(seed, salt, index) of
    # every routed index arrive as SWAR columns; a tenant's address prefix
    # and offset draws are one inlined splitmix64 round each.
    route_tenants = iter(route.tenants)
    for gap_draws, op_draws, pool_draws, pick_draws, flag_draws in mix64_chunks(
        route.indices, gap_prefix, op_prefix, pool_prefix, pick_prefix, persist_prefix
    ):
        # The shared tenant iterator goes last: zip stops on the exhausted
        # chunk column before drawing a tenant it could not pair.
        for gap, op, pool, pick, flag, tenant in zip(
            gap_draws, op_draws, pool_draws, pick_draws, flag_draws, route_tenants
        ):
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
                state = tenants[tenant] = [
                    slot * lines_per_tenant, 0, -1, prefix ^ prefix >> 31
                ]
            elif tenant_quota and state[1] >= tenant_quota:
                deferred += 1
                continue
            base, used, last, prefix = state

            gaps(gap % gap_span)
            cores(0)
            # A tenant's first admitted access is a write.
            if last < 0 or op / _UNIT >= read_fraction:
                offset = (prefix + used) & _MASK64
                offset ^= offset >> 30
                offset = (offset * 0xBF58476D1CE4E5B9) & _MASK64
                offset ^= offset >> 27
                offset = (offset * 0x94D049BB133111EB) & _MASK64
                last = state[2] = base + (offset ^ offset >> 31) % lines_per_tenant
                if pool / _UNIT < content_overlap:
                    pick %= shared_pool_lines
                    data = pool_cache.get(pick)
                    if data is None:
                        data = pool_cache[pick] = (
                            sha256(pack_pool(seed, pick)).digest() * tiles
                        )[:line_size]
                else:
                    data = (
                        sha256(pack_private(seed, tenant, used)).digest() * tiles
                    )[:line_size]
                ops(OP_WRITE)
                addresses(last)
                persistent(flag / _UNIT < persistent_fraction)
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
