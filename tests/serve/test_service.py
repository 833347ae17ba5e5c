"""Service orchestration: shard jobs, dispatch with retry, run_service."""

from __future__ import annotations

import json
import os
from array import array
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.obs.metrics import reset_registry
from repro.runner import provider
from repro.runner.cache import ResultCache
from repro.serve.control import AdmissionPolicy
from repro.serve.service import (
    SERVE_JOB_KIND,
    ServiceConfig,
    run_service,
    run_shard_job,
    shard_spec,
)
from repro.workloads.tenants import ShardRoute, TenantTrafficConfig, route_accesses

TRAFFIC = TenantTrafficConfig(
    tenants=300, accesses=500, seed=11, shared_pool_lines=64, lines_per_tenant=16
)
CONFIG = ServiceConfig(traffic=TRAFFIC, shards=2)


@pytest.fixture(autouse=True)
def _hermetic():
    reset_registry()
    provider.reset()
    yield
    reset_registry()
    provider.reset()


class TestServiceConfig:
    def test_round_trip(self):
        config = ServiceConfig(
            traffic=TRAFFIC,
            policy=AdmissionPolicy(max_tenant_slots=10, tenant_quota=3),
            shards=4,
            controller_opts={"hash_latency_ns": 20},
        )
        assert ServiceConfig.from_dict(config.to_dict()) == config

    def test_rejects_non_positive_shards(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)


class TestShardSpec:
    def test_specs_are_content_keyed_and_distinct(self):
        a = shard_spec(CONFIG, 0)
        b = shard_spec(CONFIG, 0)
        c = shard_spec(CONFIG, 1)
        assert a.identity == b.identity
        assert a.identity != c.identity
        assert a.kind == SERVE_JOB_KIND
        assert a.experiment == "serve"

    def test_rejects_out_of_range_shard(self):
        with pytest.raises(ValueError):
            shard_spec(CONFIG, 2)
        with pytest.raises(ValueError):
            shard_spec(CONFIG, -1)


class TestRunShardJob:
    def test_payload_shape_and_accounting(self):
        params = CONFIG.to_dict()
        params["shard"] = 0
        payload = run_shard_job(params)
        assert payload["shard"] == 0
        assert payload["simulations"] == 1
        assert payload["offered"] == (
            payload["admitted"] + payload["deferred"] + payload["rejected"]
        )
        assert payload["tenants"] > 0
        assert payload["report"]["stats"]["writes_requested"] > 0
        # Summary-mode stage accounting rode along with the simulation.
        assert payload["stages"]["stages"]

    def test_job_is_deterministic(self):
        params = CONFIG.to_dict()
        params["shard"] = 1
        first = run_shard_job(params)
        reset_registry()
        second = run_shard_job(params)
        assert first == second


class TestRunService:
    def test_smoke_run_completes_every_shard(self):
        outcome = run_service(CONFIG)
        report = outcome.report
        assert len(report.shards) == CONFIG.shards
        assert report.fallbacks == {}
        assert report.merged.stats.writes_requested > 0
        assert outcome.run.planned == CONFIG.shards
        assert outcome.run.retries == 0
        assert not outcome.run.failures
        # The whole seeded budget was offered across the shard set.
        assert sum(s.offered for s in report.shards) == TRAFFIC.accesses

    def test_persistent_failure_raises_after_redispatch(self, monkeypatch):
        import repro.serve.service as service_module

        real = run_shard_job
        attempts = {"shard 1": 0}

        def broken(params):
            if int(params["shard"]) == 1:
                attempts["shard 1"] += 1
                raise RuntimeError("shard 1 exploded")
            return real(params)

        monkeypatch.setattr(service_module, "run_shard_job", broken)
        with pytest.raises(RuntimeError, match=r"shard\(s\) 1 failed"):
            run_service(CONFIG)
        # The engine's retry-once is the only re-dispatch.
        assert attempts["shard 1"] == 2

    def test_flaky_shard_recovers_on_redispatch(self, monkeypatch):
        import repro.serve.service as service_module

        clean = run_service(CONFIG).report.to_dict()
        reset_registry()
        provider.reset()
        real = run_shard_job
        crashes = {"left": 1}

        def flaky(params):
            if int(params["shard"]) == 1 and crashes["left"] > 0:
                crashes["left"] -= 1
                raise RuntimeError("transient")
            return real(params)

        monkeypatch.setattr(service_module, "run_shard_job", flaky)
        outcome = run_service(CONFIG)
        assert crashes["left"] == 0
        assert outcome.run.retries == 1
        assert not outcome.run.failures
        # The retry leaves no trace in the deterministic report.
        assert outcome.report.to_dict() == clean

    def test_shard_metrics_are_published(self):
        run_service(CONFIG)
        from repro.obs.metrics import registry

        snapshot = registry().to_dict()
        for shard in range(CONFIG.shards):
            assert f"serve.shard.{shard}.admitted" in snapshot


class TestDispatch:
    """A pooled run routes once up front and deals the largest shard first."""

    CONFIG = ServiceConfig(traffic=TRAFFIC, shards=4)

    def _submitted(self, monkeypatch, **kwargs) -> list[int]:
        import repro.serve.service as service_module

        seen: list[int] = []
        real = service_module.run_jobs

        def recording(specs, **options):
            seen.extend(spec.params["shard"] for spec in specs)
            return real(specs, **options)

        monkeypatch.setattr(service_module, "run_jobs", recording)
        run_service(self.CONFIG, **kwargs)
        return seen

    def test_pool_dispatch_is_largest_first_ties_by_shard(self, monkeypatch):
        routes = route_accesses(TRAFFIC, self.CONFIG.shards)
        sizes = [len(route.indices) for route in routes]
        expected = sorted(range(self.CONFIG.shards), key=lambda shard: (-sizes[shard], shard))
        assert self._submitted(monkeypatch, parallel=2) == expected
        assert expected != list(range(self.CONFIG.shards))

    def test_equal_routes_keep_shard_order(self, monkeypatch):
        import repro.serve.service as service_module

        sizes = [3, 5, 5, 1]
        fake = tuple(ShardRoute(array("q", range(n)), array("q", range(n))) for n in sizes)
        monkeypatch.setattr(service_module, "route_accesses", lambda traffic, shards: fake)
        assert self._submitted(monkeypatch, parallel=2) == [1, 2, 0, 3]

    def test_serial_dispatch_stays_in_shard_order(self, monkeypatch):
        assert self._submitted(monkeypatch) == list(range(self.CONFIG.shards))

    def test_report_is_byte_identical_serial_and_pooled(self):
        serial = run_service(self.CONFIG).report.to_dict()
        reset_registry()
        provider.reset()
        pooled = run_service(self.CONFIG, parallel=2).report.to_dict()
        assert json.dumps(pooled, sort_keys=True) == json.dumps(serial, sort_keys=True)

    def test_pooled_run_routes_in_the_dispatcher(self):
        route_accesses.cache_clear()
        run_service(self.CONFIG, parallel=2)
        assert route_accesses.cache_info().misses == 1

    def test_fully_warm_rerun_makes_no_routing_pass(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = run_service(self.CONFIG, parallel=2, cache=cache)
        assert cold.run.executed == self.CONFIG.shards
        provider.reset()
        route_accesses.cache_clear()
        warm = run_service(self.CONFIG, parallel=2, cache=cache)
        assert warm.run.disk_hits == self.CONFIG.shards
        assert route_accesses.cache_info().misses == 0
        assert warm.report.to_dict() == cold.report.to_dict()


class TestImports:
    def test_serve_stack_never_imports_numpy(self):
        src = Path(repro.__file__).resolve().parents[1]
        code = (
            "import sys, repro.serve.service, repro.workloads.tenants; "
            "print('numpy' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        assert result.stdout.strip() == "False"
