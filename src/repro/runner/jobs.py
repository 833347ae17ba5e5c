"""Job model of the parallel experiment engine.

A :class:`JobSpec` names one independent, deterministic unit of work —
typically one (workload × controller config) simulation — by *content*:
every input (trace parameters, controller spec, core model) is folded into
a canonical JSON string, so two specs with equal ``identity`` always
produce equal payloads and can share one cache entry, one worker run and
one in-process memo slot.  The seed travels inside the spec, which is what
makes parallel execution bit-identical to serial execution.

Job kinds (extensible via :func:`register_job_kind`):

- ``"simulate"``        — run one controller over one workload trace and
  return the lossless :meth:`SimulationReport.to_dict` plus controller
  extras (reference histogram, capacity/plaintext counters);
- ``"metadata-sweep"``  — Fig. 21's warm-then-measure cache-sizing run for
  one (application, cache size, prefetch) point;
- ``"bitflips"``        — Fig. 13's three bit-flip analyser passes for one
  application;
- ``"crash-recovery"``  — one fault-injection scenario: simulate until
  power loss, recover the metadata, audit every written line against the
  replay oracle (see :mod:`repro.faults.campaign`);
- ``"serve-shard"``     — one shard of the multi-tenant dedup-memory
  service: re-derive the shard's seeded tenant stream and drive a
  controller over it through the fused batch path (see
  :mod:`repro.serve.service`).

Payloads are plain JSON types only: they must survive the on-disk cache
and transport between worker processes.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.metrics import registry as metrics_registry
from repro.system.cpu import CoreModelConfig

if TYPE_CHECKING:  # pragma: no cover - typing only; workloads load lazily
    from repro.workloads.trace import Trace

#: Reserved workload name for the zero-duplicate adversarial trace
#: (everything else names an :class:`ApplicationProfile`).
WORST_CASE_WORKLOAD = "worst-case"


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class JobSpec:
    """One independent unit of work, identified by content.

    ``experiment`` is a display label (which figure asked for this job);
    it is deliberately excluded from :attr:`identity` so two figures that
    need the same simulation share one job and one cache entry.
    """

    kind: str
    params_json: str
    experiment: str = ""

    @property
    def params(self) -> dict[str, Any]:
        """Decoded parameters."""
        return json.loads(self.params_json)

    @property
    def identity(self) -> tuple[str, str]:
        """Deduplication / cache-key identity (kind + canonical params)."""
        return (self.kind, self.params_json)

    @property
    def label(self) -> str:
        """Short human-readable description for progress lines."""
        params = self.params
        workload = params.get("workload", "?")
        controller = params.get("controller", "")
        suffix = f"/{controller}" if controller else ""
        prefix = f"{self.experiment}: " if self.experiment else ""
        return f"{prefix}{self.kind} {workload}{suffix}"


def _core_params(core: CoreModelConfig | None) -> dict[str, float]:
    cfg = core if core is not None else CoreModelConfig()
    return {
        "clock_ghz": cfg.clock_ghz,
        "base_cpi": cfg.base_cpi,
        "read_stall_exposure": cfg.read_stall_exposure,
    }


def simulate_spec(
    *,
    workload: str,
    controller: str,
    accesses: int,
    seed: int,
    opts: dict[str, Any] | None = None,
    core: CoreModelConfig | None = None,
    experiment: str = "",
    timeline_window_ns: float | None = None,
) -> JobSpec:
    """Spec for one (workload × controller) simulation.

    ``timeline_window_ns`` attaches a worker-side
    :class:`~repro.obs.timeline.TimelineCollector` with that window width
    and adds its snapshot to the payload under ``"timeline"``.  The key
    enters the params (and therefore the cache identity) only when set,
    so every pre-existing cache entry stays addressable.
    """
    params = {
        "workload": workload,
        "controller": controller,
        "opts": opts or {},
        "accesses": accesses,
        "seed": seed,
        "core": _core_params(core),
    }
    if timeline_window_ns is not None:
        if timeline_window_ns <= 0:
            raise ValueError(f"window width must be positive, got {timeline_window_ns}")
        params["timeline_window_ns"] = float(timeline_window_ns)
    return JobSpec("simulate", canonical_json(params), experiment)


def metadata_sweep_spec(
    *,
    workload: str,
    accesses: int,
    seed: int,
    size_kb: int,
    prefetch: int,
    warm_fraction: float = 0.4,
    core: CoreModelConfig | None = None,
    experiment: str = "",
) -> JobSpec:
    """Spec for one Fig. 21 metadata-cache sizing point."""
    params = {
        "workload": workload,
        "accesses": accesses,
        "seed": seed,
        "size_kb": size_kb,
        "prefetch": prefetch,
        "warm_fraction": warm_fraction,
        "core": _core_params(core),
    }
    return JobSpec("metadata-sweep", canonical_json(params), experiment)


def bitflip_spec(
    *,
    workload: str,
    accesses: int,
    seed: int,
    experiment: str = "",
) -> JobSpec:
    """Spec for one Fig. 13 bit-flip analysis (DCW/FNW/DEUCE × 3 fronts)."""
    params = {"workload": workload, "accesses": accesses, "seed": seed}
    return JobSpec("bitflips", canonical_json(params), experiment)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

JobRunner = Callable[[dict[str, Any]], dict[str, Any]]

_JOB_KINDS: dict[str, JobRunner] = {}


def register_job_kind(name: str, runner: JobRunner, *, replace: bool = False) -> None:
    """Register an executor for a job kind (tests add synthetic kinds)."""
    if not replace and name in _JOB_KINDS:
        raise ValueError(f"job kind {name!r} is already registered")
    _JOB_KINDS[name] = runner


def registered_job_kinds() -> tuple[str, ...]:
    """Names of all registered job kinds."""
    return tuple(sorted(_JOB_KINDS))


def execute_job(spec: JobSpec) -> dict[str, Any]:
    """Run one job in this process and return its JSON-shaped payload.

    Payloads carry a ``"simulations"`` count (full trace simulations the
    job executed) so run summaries can report exactly how much simulation
    work a cold vs warm cache cost.
    """
    try:
        runner = _JOB_KINDS[spec.kind]
    except KeyError:
        known = ", ".join(sorted(_JOB_KINDS))
        raise KeyError(f"unknown job kind {spec.kind!r}; registered: {known}") from None
    payload = runner(spec.params)
    registry = metrics_registry()
    registry.counter(f"jobs.{spec.kind}").inc()
    registry.counter("simulations").inc(float(payload.get("simulations", 0)))
    return payload


#: Traces :func:`trace_for` keeps per process.  Jobs are planned app-major,
#: so every controller of one workload runs back to back (and all the crash
#: scenarios of a campaign replay one trace): a few slots catch the reuse.
TRACE_MEMO_SIZE = 4


@functools.lru_cache(maxsize=TRACE_MEMO_SIZE)
def trace_for(workload: str, accesses: int, seed: int) -> Trace:
    """The access trace a workload name denotes (profile or worst-case).

    Shared by the job executors, the figure surveys, ``repro check`` and
    the CLI verbs, so every consumer resolves workload names identically.
    Memoized per process (LRU of :data:`TRACE_MEMO_SIZE`): jobs that
    replay the same ``(workload, accesses, seed)`` share one trace and its
    batch, which is immutable, so sharing cannot change a result.
    """
    from repro.workloads.generator import generate_trace
    from repro.workloads.profiles import profile_by_name
    from repro.workloads.worstcase import worst_case_trace

    if workload == WORST_CASE_WORKLOAD:
        return worst_case_trace(num_accesses=accesses, seed=seed)
    return generate_trace(profile_by_name(workload), accesses, seed=seed)


def _run_simulate(params: dict[str, Any]) -> dict[str, Any]:
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.system.simulator import simulate

    core = CoreModelConfig(**params["core"])
    trace = trace_for(params["workload"], int(params["accesses"]), int(params["seed"]))
    timeline = None
    window_ns = params.get("timeline_window_ns")
    if window_ns is not None:
        from repro.obs.timeline import TimelineCollector

        timeline = TimelineCollector(window_ns=float(window_ns))
    controller = build_controller(
        params["controller"], NvmMainMemory(), timeline=timeline, **params["opts"]
    )
    report = simulate(controller, trace, core)

    extras: dict[str, Any] = {}
    index = getattr(controller, "index", None)
    if index is not None:
        histogram = index.reference_histogram()
        extras["reference_histogram"] = sorted(
            [int(ref), int(count)] for ref, count in histogram.items()
        )
        extras["reference_cap"] = controller.config.reference_cap
    for attr in ("capacity_saved_lines", "plaintext_bus_transfers", "page_reencryptions"):
        value = getattr(controller, attr, None)
        if value is not None:
            extras[attr] = int(value)
    payload = {"report": report.to_dict(), "extras": extras, "simulations": 1}
    if timeline is not None:
        payload["timeline"] = timeline.to_dict()
    return payload


def _run_metadata_sweep(params: dict[str, Any]) -> dict[str, Any]:
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.system.simulator import simulate
    from repro.workloads.trace import Trace

    core = CoreModelConfig(**params["core"])
    size_kb = int(params["size_kb"])
    trace = trace_for(params["workload"], int(params["accesses"]), int(params["seed"]))
    controller = build_controller(
        "dewrite",
        NvmMainMemory(),
        metadata_cache={
            "hash_cache_bytes": size_kb * 1024,
            "address_map_cache_bytes": size_kb * 1024,
            "inverted_hash_cache_bytes": size_kb * 1024,
            "fsm_cache_bytes": max(size_kb // 4, 4) * 1024,
            "prefetch_entries": int(params["prefetch"]),
        },
    )
    # Warm with the leading fraction of the trace (the paper warms caches
    # for 10 M instructions), measure on the rest.
    # The split is built from a private copy of the scalar stream, so the
    # memoized trace stays batch-only.
    stream = trace.as_batch().to_accesses()
    split = max(1, int(len(stream) * float(params["warm_fraction"])))
    warm = Trace(trace.name, stream[:split], trace.threads)
    measured = Trace(trace.name, stream[split:], trace.threads)
    simulate(controller, warm, core)
    controller.metadata.reset_stats()
    simulate(controller, measured, core)
    hits = {name: cache.hits for name, cache in controller.metadata.caches.items()}
    accesses = {name: cache.accesses for name, cache in controller.metadata.caches.items()}
    return {"hits": hits, "accesses": accesses, "simulations": 2}


def _run_bitflips(params: dict[str, Any]) -> dict[str, Any]:
    from repro.baselines.bit_reduction import BitFlipAnalyzer
    from repro.workloads.oracle import DedupOracle, is_zero_line

    trace = trace_for(params["workload"], int(params["accesses"]), int(params["seed"]))
    writes = list(trace.as_batch().write_pairs())

    plain = BitFlipAnalyzer().run(writes)
    shredder = BitFlipAnalyzer().run(
        writes, eliminator=lambda addr, data: is_zero_line(data)
    )
    dedup_oracle = DedupOracle()
    dewrite = BitFlipAnalyzer().run(
        writes, eliminator=lambda addr, data: dedup_oracle.observe_write(addr, data)
    )
    fractions = {}
    for front, analysis in (("plain", plain), ("shredder", shredder), ("dewrite", dewrite)):
        for technique in ("dcw", "fnw", "deuce"):
            fractions[f"{front}_{technique}"] = analysis.flip_fraction(technique)
    return {"fractions": fractions, "simulations": 0}


def _run_crash_recovery(params: dict[str, Any]) -> dict[str, Any]:
    # Lazy import: worker processes import this module, not repro.faults,
    # so the fault stack only loads when a crash-recovery job actually runs.
    from repro.faults.campaign import run_crash_recovery_job

    return run_crash_recovery_job(params)


def _run_serve_shard(params: dict[str, Any]) -> dict[str, Any]:
    # Lazy import: the serve subsystem only loads when a shard job runs.
    from repro.serve.service import run_shard_job

    return run_shard_job(params)


register_job_kind("simulate", _run_simulate)
register_job_kind("metadata-sweep", _run_metadata_sweep)
register_job_kind("bitflips", _run_bitflips)
register_job_kind("crash-recovery", _run_crash_recovery)
register_job_kind("serve-shard", _run_serve_shard)
