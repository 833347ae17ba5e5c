"""System tests: the serve identities the CI smoke job enforces.

Two equalities are the subsystem's correctness contract:

1. **Serial ≡ parallel.**  The same seeded :class:`ServiceConfig` run
   with ``parallel=1`` and ``parallel=2`` serialises to byte-identical
   JSON — execution order, worker count and transport leave no trace in
   the report.

2. **Sharded service ≡ plain simulation.**  A ``shards=1`` service run's
   merged report equals a direct :func:`simulate` of the same
   synthesized stream: the whole serve stack (job specs, runner, merge
   fold) adds exactly nothing to the simulated physics.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.metrics import reset_registry
from repro.runner import provider
from repro.serve.service import ServiceConfig, run_service
from repro.workloads.tenants import TenantTrafficConfig

TRAFFIC = TenantTrafficConfig(
    tenants=5000, accesses=3000, seed=11, shared_pool_lines=128
)


def _blob(config: ServiceConfig, **kwargs) -> str:
    reset_registry()
    provider.reset()
    outcome = run_service(config, **kwargs)
    reset_registry()
    provider.reset()
    return json.dumps(outcome.report.to_dict(), sort_keys=True)


class TestServeIdentity:
    def test_serial_and_parallel_reports_are_byte_identical(self):
        config = ServiceConfig(traffic=TRAFFIC, shards=4)
        assert _blob(config, parallel=1) == _blob(config, parallel=2)

    def test_single_shard_service_equals_plain_simulation(self):
        from repro.core.registry import build_controller
        from repro.nvm.config import NvmConfig, NvmOrganization
        from repro.nvm.memory import NvmMainMemory
        from repro.serve.tenants import TenantRegistry
        from repro.system.simulator import simulate
        from repro.workloads.tenants import synthesize_shard_stream
        from repro.workloads.trace import Trace

        config = ServiceConfig(traffic=TRAFFIC, shards=1)
        reset_registry()
        provider.reset()
        outcome = run_service(config)
        reset_registry()
        provider.reset()

        # Re-derive the stream and drive the controller directly, sizing
        # the device exactly as the shard job does.
        registry = TenantRegistry(TRAFFIC.lines_per_tenant)
        stream = synthesize_shard_stream(
            TRAFFIC, shard=0, shards=1, registry=registry
        )
        data_lines = registry.device_lines()
        total_lines = data_lines + data_lines // 4 + 256
        organization = NvmOrganization(
            capacity_bytes=total_lines * TRAFFIC.line_size,
            line_size_bytes=TRAFFIC.line_size,
        )
        nvm = NvmMainMemory(NvmConfig(organization=organization))
        controller = build_controller("dewrite", nvm)
        trace = Trace.from_batch("serve/shard-000", stream.batch)
        direct = simulate(controller, trace)
        reset_registry()

        assert outcome.report.merged == direct
        assert (
            json.dumps(outcome.report.merged.to_dict(), sort_keys=True)
            == json.dumps(direct.to_dict(), sort_keys=True)
        )

    def test_shard_count_is_in_the_job_identity(self):
        # Different shard counts are different experiments: same traffic,
        # disjoint cache keys (no stale cross-topology cache hits).
        from repro.serve.service import shard_spec

        four = ServiceConfig(traffic=TRAFFIC, shards=4)
        eight = ServiceConfig(traffic=TRAFFIC, shards=8)
        assert shard_spec(four, 0).identity != shard_spec(eight, 0).identity

    def test_report_round_trips_through_json(self):
        config = ServiceConfig(traffic=TRAFFIC, shards=2)
        reset_registry()
        provider.reset()
        outcome = run_service(config)
        reset_registry()
        provider.reset()
        from repro.serve.report import ServiceReport

        blob = json.dumps(outcome.report.to_dict(), sort_keys=True)
        clone = ServiceReport.from_dict(json.loads(blob))
        assert json.dumps(clone.to_dict(), sort_keys=True) == blob

    def test_fused_path_holds_in_smoke_config(self):
        config = ServiceConfig(traffic=TRAFFIC, shards=4)
        reset_registry()
        provider.reset()
        outcome = run_service(config)
        fallbacks = outcome.report.fallbacks
        reset_registry()
        provider.reset()
        assert fallbacks == {}, f"shards fell off the fused path: {fallbacks}"


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(pytest.main([__file__, "-q"]))
