"""Multi-tenant traffic synthesis: determinism, routing partition, admission."""

from __future__ import annotations

import itertools
from array import array

import pytest

from repro.serve.tenants import ShardMap, TenantRegistry
from repro.workloads.batch import OP_WRITE, BatchBuilder
from repro.workloads.tenants import (
    COLUMN_LANES,
    ShardStream,
    TenantTrafficConfig,
    mix01,
    mix64,
    mix64_chunks,
    route_accesses,
    synthesize_shard_stream,
    tenant_line,
    zipf_rank,
)

CFG = TenantTrafficConfig(tenants=2000, accesses=1500, seed=13)


# The decision-stream salts, pinned: the reference walk below defines the
# traffic the routed synthesizer must reproduce bit for bit.
SALT_TENANT, SALT_OP, SALT_ADDRESS, SALT_GAP, SALT_PERSIST, SALT_POOL, SALT_PICK = range(1, 8)
SALT_SHARD = 0x5D


def _stream(config: TenantTrafficConfig, shards: int, shard: int, **kwargs):
    registry = TenantRegistry(config.lines_per_tenant,
                              max_slots=kwargs.pop("max_slots", 0))
    return synthesize_shard_stream(
        config, shard=shard, shards=shards, registry=registry, **kwargs
    ), registry


def _one_round(value: int) -> int:
    """One splitmix64 round on ``value`` mod 2^64 (``mix64``'s last step)."""
    mask = (1 << 64) - 1
    value &= mask
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & mask
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & mask
    return value ^ value >> 31


def _reference_mix64(*parts: int) -> int:
    """The mixer as a plain fold: one full splitmix64 round per part."""
    mask = (1 << 64) - 1
    value = 0x9E3779B97F4A7C15
    for part in parts:
        value = (value + (part & mask)) & mask
        value ^= value >> 30
        value = (value * 0xBF58476D1CE4E5B9) & mask
        value ^= value >> 27
        value = (value * 0x94D049BB133111EB) & mask
        value ^= value >> 31
    return value


def _reference_stream(config, shards, shard, *, tenant_quota=0, max_slots=0):
    """Per-index reference walk: draw every global access's tenant with
    zipf_rank, route it with ShardMap.shard_of, skip foreign accesses and
    derive every decision from a full mixer fold."""

    def draw(*parts: int) -> int:
        return _reference_mix64(config.seed, *parts)

    shard_map = ShardMap(shards=shards, seed=config.seed)
    registry = TenantRegistry(config.lines_per_tenant, max_slots=max_slots)
    builder = BatchBuilder(line_size=config.line_size)
    last_written: dict[int, int] = {}
    used_by: dict[int, int] = {}
    offered = deferred = rejected = 0
    for index in range(config.accesses):
        u = draw(SALT_TENANT, index) / 2.0**64
        tenant = zipf_rank(u, config.tenants, config.zipf_s)
        if shard_map.shard_of(tenant) != shard:
            continue
        offered += 1
        used = used_by.get(tenant, 0)
        if tenant_quota and used >= tenant_quota:
            deferred += 1
            continue
        slot = registry.slot_of(tenant)
        if slot is None:
            rejected += 1
            continue
        gap = draw(SALT_GAP, index) % (config.max_gap + 1)
        last = last_written.get(tenant)
        if last is None or draw(SALT_OP, index) / 2.0**64 >= config.read_fraction:
            offset = draw(SALT_ADDRESS, tenant, used) % config.lines_per_tenant
            address = slot * config.lines_per_tenant + offset
            if draw(SALT_POOL, index) / 2.0**64 < config.content_overlap:
                pick = draw(SALT_PICK, index) % config.shared_pool_lines
                data = tenant_line(config.seed, pick, line_size=config.line_size)
            else:
                data = tenant_line(config.seed, tenant, used, line_size=config.line_size)
            persistent = draw(SALT_PERSIST, index) / 2.0**64 < config.persistent_fraction
            builder.append_write(0, address, data, gap_instructions=gap,
                                 persistent=persistent)
            last_written[tenant] = address
        else:
            builder.append_read(0, last, gap_instructions=gap)
        used_by[tenant] = used + 1
    return ShardStream(
        shard=shard, batch=builder.build(), tenants_seen=len(used_by),
        offered=offered, admitted=offered - deferred - rejected,
        deferred=deferred, rejected=rejected,
    )


def _snapshot(stream: ShardStream) -> tuple:
    batch = stream.batch
    return (
        bytes(batch.ops), list(batch.cores), list(batch.addresses), list(batch.gaps),
        bytes(batch.persistent), bytes(batch.payload), list(batch.slots),
        stream.tenants_seen, stream.offered, stream.admitted,
        stream.deferred, stream.rejected,
    )


GRID = list(itertools.product((1, 3, 8), (0.8, 1.0, 1.1), (1, 300, 1_000_000), (False, True)))


class TestMixers:
    def test_mix64_is_deterministic_and_part_sensitive(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 2, 4)
        assert mix64(1, 2, 3) != mix64(3, 2, 1)

    def test_mix64_matches_the_plain_fold(self):
        for parts in [(), (7,), (7, 1, 0), (13, 0x5D, 999_999), (-3, 2, 2**64 + 5)]:
            assert mix64(*parts) == _reference_mix64(*parts)

    def test_mix01_in_unit_interval(self):
        for i in range(200):
            assert 0.0 <= mix01(7, i) < 1.0

    def test_zipf_rank_bounds_and_skew(self):
        ranks = [zipf_rank(mix01(3, i), 1000, 1.1) for i in range(5000)]
        assert all(0 <= r < 1000 for r in ranks)
        # Zipfian skew: rank 0 must dominate the tail.
        head = sum(1 for r in ranks if r < 10)
        tail = sum(1 for r in ranks if r >= 500)
        assert head > tail

    def test_zipf_rank_population_one(self):
        assert zipf_rank(0.99, 1, 1.1) == 0

    def test_zipf_rank_rejects_empty_population(self):
        with pytest.raises(ValueError):
            zipf_rank(0.5, 0, 1.1)

    @pytest.mark.parametrize("lanes", [0, 1, 511, 512, 513])
    def test_mix64_chunks_match_mix64_lane_for_lane(self, lanes):
        mask = (1 << 64) - 1
        keys = array("q", range(7, 7 + 3 * lanes, 3))
        # Two ordinary prefixes plus one whose sums wrap past 2^64.
        prefixes = (_reference_mix64(13, 2), _reference_mix64(13, 4), mask - lanes)
        chunks = list(mix64_chunks(keys, *prefixes))
        assert len(chunks) == -(-lanes // COLUMN_LANES)
        assert all(len(column) <= COLUMN_LANES for chunk in chunks for column in chunk)
        columns = [[draw for chunk in chunks for draw in chunk[p]] for p in range(3)]
        for column, prefix in zip(columns, prefixes):
            assert column == [_one_round(prefix + key) for key in keys]
        # The first prefix is mix64(13, 2), so its column is mix64(13, 2, key).
        assert columns[0] == [_reference_mix64(13, 2, key) for key in keys]

    def test_mix64_chunks_take_keys_near_2_to_the_64(self):
        top = 1 << 64
        keys = range(top - COLUMN_LANES - 3, top)
        prefix = _reference_mix64(5, 1)
        (column,) = zip(*mix64_chunks(keys, prefix))
        draws = [draw for chunk in column for draw in chunk]
        assert draws == [_one_round(prefix + key) for key in keys]
        assert draws[-1] == _reference_mix64(5, 1, top - 1)

    def test_tenant_line_deterministic_and_sized(self):
        a = tenant_line(7, 42, 3, line_size=256)
        assert a == tenant_line(7, 42, 3, line_size=256)
        assert len(a) == 256
        assert a != tenant_line(7, 42, 4, line_size=256)


class TestConfig:
    def test_round_trip(self):
        assert TenantTrafficConfig.from_dict(CFG.to_dict()) == CFG

    def test_rejects_bad_fractions(self):
        with pytest.raises(ValueError):
            TenantTrafficConfig(read_fraction=1.5)
        with pytest.raises(ValueError):
            TenantTrafficConfig(content_overlap=-0.1)

    def test_rejects_bad_line_size(self):
        with pytest.raises(ValueError):
            TenantTrafficConfig(line_size=100)


class TestSynthesis:
    def test_shards_partition_the_global_stream(self):
        # Every global access lands in exactly one shard: admitted counts
        # across shards sum to the global budget (no quotas/caps).
        streams = [_stream(CFG, 4, shard)[0] for shard in range(4)]
        assert sum(s.admitted for s in streams) == CFG.accesses
        assert sum(s.offered for s in streams) == CFG.accesses

    def test_stream_is_deterministic(self):
        a, _ = _stream(CFG, 4, 1)
        b, _ = _stream(CFG, 4, 1)
        assert a.batch.ops == b.batch.ops
        assert a.batch.addresses == b.batch.addresses
        assert a.batch.payload == b.batch.payload

    def test_single_core_stream(self):
        stream, _ = _stream(CFG, 2, 0)
        assert set(stream.batch.cores) == {0}

    def test_first_access_per_tenant_is_a_write(self):
        config = TenantTrafficConfig(
            tenants=50, accesses=800, seed=5, read_fraction=0.9
        )
        stream, _ = _stream(config, 1, 0)
        seen: set[int] = set()
        for index, op in enumerate(stream.batch.ops):
            address = stream.batch.addresses[index]
            window = address // config.lines_per_tenant
            if window not in seen:
                assert op == OP_WRITE
                seen.add(window)

    def test_reads_target_last_written_line(self):
        config = TenantTrafficConfig(tenants=20, accesses=600, seed=9,
                                     read_fraction=0.5)
        stream, _ = _stream(config, 1, 0)
        last: dict[int, int] = {}
        for index, op in enumerate(stream.batch.ops):
            address = stream.batch.addresses[index]
            window = address // config.lines_per_tenant
            if op == OP_WRITE:
                last[window] = address
            else:
                assert last[window] == address

    def test_addresses_stay_inside_the_tenant_window(self):
        stream, registry = _stream(CFG, 2, 1)
        for address in stream.batch.addresses:
            slot = address // CFG.lines_per_tenant
            assert slot < registry.tenants_registered

    def test_quota_defers_over_budget_tenants(self):
        full, _ = _stream(CFG, 1, 0)
        capped, _ = _stream(CFG, 1, 0, tenant_quota=2)
        assert capped.deferred > 0
        assert capped.admitted + capped.deferred == full.admitted
        assert capped.offered == full.offered

    def test_slot_cap_rejects_late_tenants(self):
        stream, registry = _stream(CFG, 1, 0, max_slots=3)
        assert registry.tenants_registered == 3
        assert stream.rejected > 0
        assert stream.offered == stream.admitted + stream.deferred + stream.rejected

    def test_accounting_invariant_holds(self):
        for shard in range(3):
            stream, _ = _stream(CFG, 3, shard, tenant_quota=4)
            assert stream.offered == stream.admitted + stream.deferred + stream.rejected
            assert len(stream.batch) == stream.admitted

    def test_content_overlap_shares_lines_across_tenants(self):
        config = TenantTrafficConfig(
            tenants=500, accesses=2000, seed=3,
            content_overlap=0.9, shared_pool_lines=8, read_fraction=0.0,
        )
        stream, _ = _stream(config, 1, 0)
        contents = {data for _, data in stream.batch.write_pairs()}
        # 2000 writes drawing 90 % from an 8-line pool: far fewer distinct
        # lines than writes.
        assert len(contents) < stream.admitted / 2


class TestRouting:
    @pytest.mark.parametrize("shards, zipf_s, tenants, admission", GRID)
    def test_matches_the_reference_walk(self, shards, zipf_s, tenants, admission):
        config = TenantTrafficConfig(
            tenants=tenants, accesses=400, seed=29, zipf_s=zipf_s,
            shared_pool_lines=32, lines_per_tenant=8,
        )
        knobs = {"tenant_quota": 3, "max_slots": 5} if admission else {}
        for shard in range(shards):
            routed, _ = _stream(config, shards, shard, **knobs)
            expected = _reference_stream(config, shards, shard, **knobs)
            assert _snapshot(routed) == _snapshot(expected)

    def test_routes_partition_the_access_range(self):
        routes = route_accesses(CFG, 8)
        owned = sorted(index for route in routes for index in route.indices)
        assert owned == list(range(CFG.accesses))
        for shard, route in enumerate(routes):
            assert isinstance(route.indices, array)
            assert isinstance(route.tenants, array)
            assert list(route.indices) == sorted(route.indices)
            for tenant in route.tenants:
                assert _reference_mix64(CFG.seed, SALT_SHARD, tenant) % 8 == shard

    def test_one_walk_serves_every_shard(self):
        config = TenantTrafficConfig(tenants=5000, accesses=900, seed=41)
        route_accesses.cache_clear()
        for shard in range(8):
            _stream(config, 8, shard)
        assert route_accesses.cache_info().misses == 1

    def test_rejects_out_of_range_shards(self):
        with pytest.raises(ValueError):
            _stream(CFG, 4, 4)
        with pytest.raises(ValueError):
            route_accesses(CFG, 0)
