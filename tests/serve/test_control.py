"""Control plane: shard routing, tenant registry, admission."""

from __future__ import annotations

import pytest

from repro.serve.control import AdmissionPolicy
from repro.serve.tenants import MIN_SHARD_LINES, ShardMap, TenantRegistry


class TestShardMap:
    def test_routing_is_stable_and_in_range(self):
        shard_map = ShardMap(shards=8, seed=7)
        for tenant in range(500):
            shard = shard_map.shard_of(tenant)
            assert 0 <= shard < 8
            assert shard == shard_map.shard_of(tenant)

    def test_routing_spreads_tenants(self):
        shard_map = ShardMap(shards=4, seed=3)
        hit = {shard_map.shard_of(tenant) for tenant in range(200)}
        assert hit == {0, 1, 2, 3}

    def test_seed_changes_routing(self):
        a = ShardMap(shards=16, seed=1)
        b = ShardMap(shards=16, seed=2)
        assert any(a.shard_of(t) != b.shard_of(t) for t in range(64))

    def test_round_trip(self):
        shard_map = ShardMap(shards=8, seed=7)
        assert ShardMap.from_dict(shard_map.to_dict()) == shard_map

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            ShardMap(shards=0, seed=1)


class TestTenantRegistry:
    def test_slots_assigned_in_first_appearance_order(self):
        registry = TenantRegistry(lines_per_tenant=64)
        assert registry.slot_of(900) == 0
        assert registry.slot_of(5) == 1
        assert registry.slot_of(900) == 0
        assert registry.tenants_registered == 2

    def test_window_covers_the_slot(self):
        registry = TenantRegistry(lines_per_tenant=32)
        registry.slot_of(42)
        registry.slot_of(43)
        assert registry.window(43) == (32, 32)
        assert registry.window(999) is None

    def test_max_slots_backpressure(self):
        registry = TenantRegistry(lines_per_tenant=8, max_slots=2)
        assert registry.slot_of(1) == 0
        assert registry.slot_of(2) == 1
        assert registry.slot_of(3) is None
        # Existing tenants keep their slots when the registry is full.
        assert registry.slot_of(1) == 0

    def test_device_lines_has_a_floor(self):
        registry = TenantRegistry(lines_per_tenant=64)
        registry.slot_of(1)
        assert registry.capacity_lines() == 64
        assert registry.device_lines() == MIN_SHARD_LINES

    def test_round_trip_preserves_slots(self):
        registry = TenantRegistry(lines_per_tenant=16, max_slots=10)
        for tenant in (7, 3, 11):
            registry.slot_of(tenant)
        clone = TenantRegistry.from_dict(registry.to_dict())
        assert clone.to_dict() == registry.to_dict()
        assert clone.slot_of(3) == registry.slot_of(3)


class TestAdmissionPolicy:
    def test_round_trip(self):
        policy = AdmissionPolicy(max_tenant_slots=10, tenant_quota=3)
        assert AdmissionPolicy.from_dict(policy.to_dict()) == policy

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_tenant_slots=-1)
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_quota=-1)

