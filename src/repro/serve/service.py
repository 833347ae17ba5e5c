"""Service orchestration: shard jobs and the run entry.

One ``serve-shard`` job per shard is the data plane's unit of work: it
synthesizes its slice of the global seeded tenant stream (routed by
:func:`repro.workloads.tenants.route_accesses`, memoised per process),
sizes a private NVM device from the tenants it actually carved space
for, and drives the controller through the fused batch path with a
summary-mode :class:`~repro.obs.stages.StageAccumulator` attached.  Jobs
are content-keyed :class:`JobSpec`\\ s, so the runner's cache,
memoisation, dedup, retry-once and parallel transport all apply
unchanged, and a sharded run with ``--parallel N`` is bit-identical to
the same plan executed serially.

When a pool will run shards, :func:`run_service` routes the stream once
in the dispatching process before the pool forks, so every worker
inherits the route instead of walking the global stream itself, and
submits the shards largest first (longest-processing-time order, ties
by shard index); payloads, the merge and the report stay in shard order.
"""

from __future__ import annotations

# A sharded run dispatches over a process pool, and the runner imports the
# pool machinery only when one starts: load it with the service instead,
# so a pooled run's dispatch does no import work.
import concurrent.futures.process  # noqa: F401
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.obs.events import NULL_EVENTS, EventBusLike
from repro.obs.metrics import registry as metrics_registry
from repro.obs.stages import StageAccumulator
from repro.runner import provider as provider_module
from repro.runner.cache import ResultCache, job_key
from repro.runner.engine import RunReport, run_jobs
from repro.runner.jobs import JobSpec, canonical_json
from repro.serve.control import AdmissionPolicy
from repro.serve.report import (
    ServiceReport,
    merge_shard_reports,
    shard_summary_from_payload,
)
from repro.serve.tenants import TenantRegistry
from repro.workloads.tenants import (
    TenantTrafficConfig,
    route_accesses,
    synthesize_shard_stream,
)

#: The serve data plane's job kind (registered in :mod:`repro.runner.jobs`).
SERVE_JOB_KIND = "serve-shard"


@dataclass(frozen=True)
class ServiceConfig:
    """Complete seeded description of one service run."""

    traffic: TenantTrafficConfig = field(default_factory=TenantTrafficConfig)
    policy: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    shards: int = 8
    controller: str = "dewrite"
    controller_opts: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError(f"shards must be positive, got {self.shards}")

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (this is the job-identity payload)."""
        return {
            "traffic": self.traffic.to_dict(),
            "policy": self.policy.to_dict(),
            "shards": self.shards,
            "controller": self.controller,
            "controller_opts": dict(self.controller_opts),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServiceConfig":
        """Rebuild a config from :meth:`to_dict` output."""
        return cls(
            traffic=TenantTrafficConfig.from_dict(payload["traffic"]),
            policy=AdmissionPolicy.from_dict(payload["policy"]),
            shards=int(payload["shards"]),
            controller=str(payload["controller"]),
            controller_opts=dict(payload["controller_opts"]),
        )


def shard_spec(config: ServiceConfig, shard: int) -> JobSpec:
    """Content-keyed spec for one shard's data-plane job."""
    if not 0 <= shard < config.shards:
        raise ValueError(f"shard must be in [0, {config.shards}), got {shard}")
    params = config.to_dict()
    params["shard"] = shard
    return JobSpec(SERVE_JOB_KIND, canonical_json(params), experiment="serve")


def run_shard_job(params: dict[str, Any]) -> dict[str, Any]:
    """Execute one shard's slice of the service (the ``serve-shard`` kind).

    Everything is re-derived from the seeded params: the synthesizer
    routes the global stream (once per process) and keeps this shard's
    accesses, the registry carves address windows in first-appearance
    order, and the controller consumes the resulting batch through the
    fused kernels.
    The NVM device is sized to the carved windows (with a geometry floor)
    so address space scales with the tenants this shard actually admits,
    not with the nominal million-tenant population.
    """
    from repro.core.registry import build_controller
    from repro.nvm.config import NvmConfig, NvmOrganization
    from repro.nvm.memory import NvmMainMemory
    from repro.system.simulator import simulate
    from repro.workloads.trace import Trace

    shard = int(params["shard"])
    traffic = TenantTrafficConfig.from_dict(params["traffic"])
    policy = AdmissionPolicy.from_dict(params["policy"])
    registry = TenantRegistry(
        traffic.lines_per_tenant, max_slots=policy.max_tenant_slots
    )
    stream = synthesize_shard_stream(
        traffic,
        shard=shard,
        shards=int(params["shards"]),
        registry=registry,
        tenant_quota=policy.tenant_quota,
    )

    # Controllers reserve device lines for their own metadata (DeWrite's
    # four tables take ~7 % of the device; secure baselines keep counter
    # regions), and those regions come out of the *top* of the address
    # space — so the device must be larger than the carved data windows.
    # 1/4 headroom plus a constant floor covers every registered
    # controller; the sizing is a pure function of the registry, so it is
    # identical however the job is executed.
    data_lines = registry.device_lines()
    total_lines = data_lines + data_lines // 4 + 256
    organization = NvmOrganization(
        capacity_bytes=total_lines * traffic.line_size,
        line_size_bytes=traffic.line_size,
    )
    nvm = NvmMainMemory(NvmConfig(organization=organization))
    stages = StageAccumulator()
    controller = build_controller(
        str(params["controller"]), nvm, stages=stages, **params["controller_opts"]
    )
    trace = Trace.from_batch(f"serve/shard-{shard:03d}", stream.batch)
    report = simulate(controller, trace)

    metrics = metrics_registry()
    metrics.counter(f"serve.shard.{shard}.tenants").inc(registry.tenants_registered)
    metrics.counter(f"serve.shard.{shard}.accesses").inc(report.instructions)
    metrics.counter(f"serve.shard.{shard}.admitted").inc(stream.admitted)

    return {
        "shard": shard,
        "report": report.to_dict(),
        "stages": stages.to_dict(),
        "tenants": registry.tenants_registered,
        "offered": stream.offered,
        "admitted": stream.admitted,
        "deferred": stream.deferred,
        "rejected": stream.rejected,
        "bank_wait_total_ns": float(sum(b.total_wait_ns for b in nvm.banks)),
        "bank_serviced": int(sum(b.serviced_requests for b in nvm.banks)),
        "simulations": 1,
    }


@dataclass(frozen=True)
class ServiceRun:
    """Outcome of :func:`run_service`: the report plus execution metadata.

    ``report`` is deterministic; ``run`` (cache hits, retries, elapsed
    wall time) is environment metadata and is intentionally *not* part of
    :class:`ServiceReport`.
    """

    report: ServiceReport
    run: RunReport


def _gather_fallbacks() -> dict[str, float]:
    """Any ``batch.fallback.*`` counters the run accumulated (ideally none)."""
    snapshot = metrics_registry().to_dict()
    return {
        name: float(entry["value"])
        for name, entry in sorted(snapshot.items())
        if name.startswith("batch.fallback.")
    }


def run_service(
    config: ServiceConfig,
    *,
    parallel: int = 1,
    cache: ResultCache | None = None,
    job_timeout_s: float = 600.0,
    events: EventBusLike = NULL_EVENTS,
    progress: Callable[[str], None] | None = None,
) -> ServiceRun:
    """Run the whole service: dispatch every shard job, then merge.

    Dispatch is one :func:`repro.runner.engine.run_jobs` call, so shard
    jobs cache, dedup, parallelise, retry once and emit lifecycle events
    exactly like every other job kind.  Shards that still fail after the
    retry raise with their names, never a partial merge.

    With ``parallel > 1`` and at least one shard without a cached blob,
    the route is built here, before the pool forks, and the shards are
    submitted in descending routed-access count (ties by shard index).
    A serial run keeps shard order, and a fully warm run never routes.
    A blob that exists but fails to load only loses the pre-route: the
    jobs then route for themselves.
    """
    specs = [shard_spec(config, shard) for shard in range(config.shards)]
    dispatch = specs
    if parallel > 1 and (
        cache is None or any(not cache.path_for(job_key(spec)).exists() for spec in specs)
    ):
        # A pool will run shards: route here, before run_jobs forks it, so
        # every worker inherits the memoised route instead of walking the
        # global stream itself, and deal the shards largest first.
        routes = route_accesses(config.traffic, config.shards)
        order = sorted(range(config.shards), key=lambda shard: (-len(routes[shard].indices), shard))
        dispatch = [specs[shard] for shard in order]
    run = run_jobs(
        dispatch,
        parallel=parallel,
        cache=cache,
        job_timeout_s=job_timeout_s,
        progress=progress,
        events=events,
    )
    if run.failures:
        failed = {failure.spec.identity for failure in run.failures}
        names = ", ".join(
            str(shard) for shard, spec in enumerate(specs) if spec.identity in failed
        )
        raise RuntimeError(f"shard(s) {names} failed")

    provider = provider_module.active()
    payloads = [provider.get(spec) for spec in specs]  # in shard order
    stages = StageAccumulator()
    for payload in payloads:
        stages.merge(payload["stages"])
    report = ServiceReport(
        config=config.to_dict(),
        merged=merge_shard_reports(payloads),
        stages=stages,
        shards=tuple(shard_summary_from_payload(payload) for payload in payloads),
        fallbacks=_gather_fallbacks(),
    )
    return ServiceRun(report=report, run=run)
