"""The benchmark's workloads: inputs, cold execution and correctness checks.

Each workload goes through the same public functions the CLI uses
(``plan_for``/``run_jobs``, ``run_service``, ``campaign_specs``) with the
result cache off and a fresh provider memo.  Its *operations* are the
units a check can fail: one simulation job, one serve shard (plus the
service-level merge), or one crash scenario.

``repro`` is imported only inside functions, so ``run.py`` can read the
workload table before it has checked that the program's sources exist.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable

#: Smallest access budget a scaled-down workload gets (keeps every crash
#: point and every serve shard non-empty).
MIN_ACCESSES = 64


@dataclass(frozen=True)
class Workload:
    """One benchmark workload at full scale."""

    name: str
    kind: str  # "plan", "serve" or "campaign"
    params: dict[str, Any]
    why: str


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload(
            "spec-dedup-heavy",
            "plan",
            {"figure": "system", "app": "lbm", "accesses": 7_500},
            "lbm, 98% duplicate writes: DeWrite takes detect, verify-read, remap and "
            "skips AES and the array write, so core dedup/metadata work dominates",
        ),
        Workload(
            "spec-dedup-light",
            "plan",
            {"figure": "system", "app": "bzip2", "accesses": 3_000},
            "bzip2, 20% duplicates: fresh-content trace generation dominates; "
            "the bypass workload for dedup-path changes",
        ),
        Workload(
            "worst-case-nodup",
            "plan",
            {"figure": "fig18", "app": "lbm", "accesses": 9_000},
            "Fig. 18 trace with no duplicates: every write goes CRC, miss, encrypt, "
            "array write, so hashes, crypto and nvm dominate",
        ),
        Workload(
            "parsec-4stream",
            "plan",
            {"figure": "system", "app": "blackscholes", "accesses": 5_500},
            "blackscholes, 4 threads: every batch falls back to the generic scalar "
            "driver; the spec workloads are its bypass",
        ),
        Workload(
            "serve-8shard",
            "serve",
            {"tenants": 1_000_000, "accesses": 12_000, "shards": 8, "parallel": 2},
            "1M tenants on 8 shards over a 2-worker pool: the only workload using "
            "runner transport and per-shard tenant synthesis",
        ),
        Workload(
            "fault-campaign",
            "campaign",
            {"app": "lbm", "accesses": 750, "controllers": ["dewrite", "secure-nvm"]},
            "18 crash scenarios (2 controllers x 3 policies x 3 points): scalar "
            "write/read path plus journal, recovery and audit",
        ),
    )
}


def params_for(workload: Workload, scale: float) -> dict[str, Any]:
    """The workload's inputs with its access budget scaled by ``scale``."""
    params = dict(workload.params)
    params["accesses"] = max(MIN_ACCESSES, round(params["accesses"] * scale))
    return params


def digest(value: Any) -> str:
    """sha256 of the canonical JSON of a simulated payload."""
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class Operation:
    """One unit of work together with the outcome of its checks."""

    name: str
    digest: str | None
    errors: list[str] = field(default_factory=list)


@dataclass
class Prepared:
    """A planned workload, ready to dispatch.

    ``dispatch`` runs the workload and returns the raw outcome;
    ``evaluate`` turns that outcome into checked operations and the facts
    the metrics are derived from.  ``jobs`` are the planned job specs.
    """

    jobs: list[Any]
    dispatch: Callable[[], Any]
    evaluate: Callable[[Any], tuple[list[Operation], dict[str, Any]]]


def prepare(workload: Workload, params: dict[str, Any], seed: int) -> Prepared:
    """Import, configure and plan one cold run (the measured set-up)."""
    from repro.runner import provider

    provider.reset()
    return {"plan": _prepare_plan, "serve": _prepare_serve, "campaign": _prepare_campaign}[
        workload.kind
    ](params, seed)


# -- shared checks and facts ----------------------------------------------------


def _report_errors(report: dict[str, Any]) -> list[str]:
    stats = report["stats"]
    if stats["writes_requested"] != stats["writes_deduplicated"] + stats["writes_stored"]:
        return [
            f"writes_requested {stats['writes_requested']} != deduplicated "
            f"{stats['writes_deduplicated']} + stored {stats['writes_stored']}"
        ]
    return []


def _serial_dispatch(jobs: list[Any]) -> Callable[[], Any]:
    """Run ``jobs`` serially; each payload comes from the primed provider
    memo (None for a job that failed)."""

    def dispatch() -> Any:
        from repro.runner import provider
        from repro.runner.engine import run_jobs

        run = run_jobs(jobs, parallel=1, cache=None)
        failed = {failure.spec.identity for failure in run.failures}
        return run, [
            None if spec.identity in failed else provider.active().get(spec) for spec in jobs
        ]

    return dispatch


def fallbacks() -> dict[str, float]:
    """``batch.fallback.*`` counter totals of this process's run."""
    from repro.obs.metrics import registry

    return {
        name: float(entry["value"])
        for name, entry in sorted(registry().to_dict().items())
        if name.startswith("batch.fallback.")
    }


def _failure_errors(run: Any) -> dict[tuple[str, str], str]:
    return {failure.spec.identity: failure.error for failure in run.failures}


def _report_facts(reports: list[dict[str, Any]]) -> dict[str, Any]:
    """Simulated accesses, bank wait and DeWrite counters of some reports."""
    dewrite = [r["stats"] for r in reports if r["controller"] == "DeWriteController"]

    def total(name: str) -> int:
        return sum(int(stats[name]) for stats in dewrite)

    return {
        "accesses": sum(
            int(r["stats"]["reads_requested"]) + int(r["stats"]["writes_requested"])
            for r in reports
        ),
        "bank_wait_ns": (
            sum(float(r["mean_bank_wait_ns"]) for r in reports) / len(reports) if reports else 0.0
        ),
        "dewrite": {
            name: total(name)
            for name in (
                "writes_requested",
                "writes_deduplicated",
                "writes_stored",
                "predictions",
                "correct_predictions",
                "verify_reads",
                "wasted_encryptions",
            )
        },
    }


def _runner_facts(run: Any) -> dict[str, Any]:
    return {
        "retries": int(run.retries),
        "queue_s": sum(float(t["queue_s"]) for t in run.job_timings),
        "shard_compute_s": [
            float(t["compute_s"]) for t in run.job_timings if t["kind"] == "serve-shard"
        ],
    }


# -- plan workloads (spec-*, worst-case, parsec) --------------------------------


def _prepare_plan(params: dict[str, Any], seed: int) -> Prepared:
    from repro.analysis import registry as figures
    from repro.analysis.experiments import ExperimentSettings

    settings = ExperimentSettings(
        accesses=params["accesses"], seed=seed, applications=(params["app"],)
    )
    jobs = figures.plan_for([params["figure"]], settings)

    def evaluate(outcome: Any) -> tuple[list[Operation], dict[str, Any]]:
        run, payloads = outcome
        failures = _failure_errors(run)
        operations, reports = [], []
        for spec, payload in zip(jobs, payloads):
            name = f"{spec.params['workload']}/{spec.params['controller']}"
            if payload is None:
                error = failures.get(spec.identity, "no payload")
                operations.append(Operation(name, None, [error]))
                continue
            report = payload["report"]
            reports.append(report)
            operations.append(Operation(name, digest(report), _report_errors(report)))
        facts = _report_facts(reports) | _runner_facts(run)
        return operations, facts

    return Prepared(jobs, _serial_dispatch(jobs), evaluate)


# -- serve ----------------------------------------------------------------------


def _prepare_serve(params: dict[str, Any], seed: int) -> Prepared:
    from repro.serve.service import ServiceConfig, shard_spec
    from repro.workloads.tenants import TenantTrafficConfig

    config = ServiceConfig(
        traffic=TenantTrafficConfig(
            tenants=params["tenants"], accesses=params["accesses"], seed=seed
        ),
        shards=params["shards"],
    )
    jobs = [shard_spec(config, shard) for shard in range(config.shards)]

    def dispatch() -> Any:
        from repro.runner import provider
        from repro.serve.service import run_service

        try:
            service = run_service(config, parallel=params["parallel"], cache=None)
        except RuntimeError as exc:
            return exc, []
        return service, [provider.active().get(spec) for spec in jobs]

    def evaluate(outcome: Any) -> tuple[list[Operation], dict[str, Any]]:
        service, payloads = outcome
        if isinstance(service, Exception):
            error = f"run_service: {service}"
            names = [f"shard-{shard}" for shard in range(config.shards)] + ["service"]
            return [Operation(name, None, [error]) for name in names], _report_facts([])
        operations = [
            Operation(f"shard-{payload['shard']}", digest(payload["report"]),
                      _report_errors(payload["report"]))
            for payload in payloads
        ]
        report = service.report
        offered = sum(summary.offered for summary in report.shards)
        admitted = sum(summary.admitted for summary in report.shards)
        errors = [f"job failed: {failure.error}" for failure in service.run.failures]
        if offered != config.traffic.accesses:
            errors.append(f"offered {offered} != access budget {config.traffic.accesses}")
        if report.fallbacks:
            errors.append(f"batch fallbacks on the serve path: {report.fallbacks}")
        merged = report.merged.to_dict()
        errors.extend(_report_errors(merged))
        operations.append(Operation("service", digest(report.to_dict()), errors))
        facts = (
            _report_facts([merged])
            | _runner_facts(service.run)
            | {"offered": offered, "admitted": admitted}
        )
        return operations, facts

    return Prepared(jobs, dispatch, evaluate)


# -- fault campaign -------------------------------------------------------------


def _prepare_campaign(params: dict[str, Any], seed: int) -> Prepared:
    from repro.faults.campaign import campaign_specs

    jobs = campaign_specs(
        workload=params["app"],
        accesses=params["accesses"],
        seed=seed,
        controllers=tuple(params["controllers"]),
    )

    def evaluate(outcome: Any) -> tuple[list[Operation], dict[str, Any]]:
        run, payloads = outcome
        failures = _failure_errors(run)
        operations = []
        accesses = intact = total_lines = 0
        for spec, payload in zip(jobs, payloads):
            job = spec.params
            name = f"{job['controller']}/{job['policy']}/@{job['plan']['power_loss_at_access']}"
            if payload is None:
                error = failures.get(spec.identity, "no payload")
                operations.append(Operation(name, None, [error]))
                continue
            scenario = payload["scenario"]
            verdict = scenario["report"]
            errors = []
            if verdict["intact"] + verdict["stale"] + verdict["lost"] != verdict["total_lines"]:
                errors.append(f"verdicts do not partition {verdict['total_lines']} lines")
            if scenario["policy"] == "battery_backed" and verdict["lost"]:
                errors.append(f"battery_backed lost {verdict['lost']} lines")
            operations.append(Operation(name, digest(scenario), errors))
            accesses += int(scenario["accesses_before_crash"])
            intact += int(verdict["intact"])
            total_lines += int(verdict["total_lines"])
        facts = _report_facts([]) | _runner_facts(run)
        facts |= {"accesses": accesses, "intact": intact, "total_lines": total_lines}
        return operations, facts

    return Prepared(jobs, _serial_dispatch(jobs), evaluate)
