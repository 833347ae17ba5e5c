"""Parallel experiment execution engine.

:func:`run_jobs` takes the planner's :class:`~repro.runner.jobs.JobSpec`
list and resolves every job, fanning cache misses out over a
``ProcessPoolExecutor``:

1. **dedupe** — jobs with equal ``identity`` collapse to one run (several
   figures share the same baseline-vs-DeWrite comparison);
2. **disk lookup** — warm cache entries are served without any process
   spawn (a fully warm run executes zero simulations);
3. **schedule** — misses run on ``--parallel N`` worker processes with a
   per-job timeout and retry-once-on-crash handling (a worker that raises
   *or* dies taking the pool down gets one resubmission; a second failure
   is recorded, not raised).  A serial run (``parallel <= 1``, or a single
   miss) executes each job in-process with no per-job timeout; both
   executors take the same attempt, failure and resolve steps, so the
   report, the failure text, the trace and the lifecycle records do not
   depend on ``--parallel``;
4. **prime** — every payload is pushed into the active
   :mod:`~repro.runner.provider` memo (and the disk cache), so the figure
   renderers that run afterwards hit warm results only.

Determinism: each job regenerates its trace from the seed carried inside
its spec and runs in isolation, so results are bit-identical whatever the
worker count or completion order — the engine only changes *where* a job
runs, never *what* it computes.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable

from repro._lazy import lazy_exports
from repro.obs.events import NULL_EVENTS, EventBusLike
from repro.obs.metrics import registry as metrics_registry
from repro.obs.sinks import stderr_line
from repro.obs.trace import NULL_TRACER, TracerLike
from repro.runner import provider as provider_module
from repro.runner.cache import ResultCache, job_key
from repro.runner.jobs import JobSpec, execute_job

ProgressFn = Callable[[str], None]

#: ``concurrent.futures.wait``, bound on first use (PEP 562) so importing
#: the engine does not import the pool machinery.
__getattr__ = lazy_exports(__name__, {"wait": "concurrent.futures"})


@dataclass(frozen=True)
class JobFailure:
    """One job that failed even after its retry."""

    spec: JobSpec
    error: str
    attempts: int


@dataclass
class RunReport:
    """Outcome and accounting of one :func:`run_jobs` invocation."""

    planned: int = 0
    unique: int = 0
    disk_hits: int = 0
    executed: int = 0
    simulations: int = 0
    retries: int = 0
    failures: list[JobFailure] = field(default_factory=list)
    elapsed_s: float = 0.0
    #: One entry per resolved unique job (manifest ``jobs`` section):
    #: label, key, kind, source ("cache"/"executed"/"failed"),
    #: compute_s, queue_s, attempts.
    job_timings: list[dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every unique job produced a payload."""
        return not self.failures

    def cache_stats_line(self) -> str:
        """The run summary's cache-stats line (machine-greppable)."""
        return (
            f"cache-stats: {self.unique} unique jobs "
            f"({self.planned} planned), {self.disk_hits} warm from cache, "
            f"{self.executed} executed, {self.simulations} simulations executed, "
            f"{self.retries} retried, {len(self.failures)} failed "
            f"[{self.elapsed_s:.1f}s]"
        )


def _pool_worker(kind: str, params_json: str) -> dict[str, Any]:
    """Top-level (picklable) worker entry: execute one job by content.

    Returns an envelope: the job ``payload`` (what the cache stores — the
    envelope itself never reaches the cache, so cached bytes are identical
    to serial runs), the worker-side ``compute_s``, and the worker's
    metrics snapshot.  The registry is reset at job start because pool
    processes are reused — without the reset a long-lived worker would
    report every earlier job's metrics again and the parent-side merge
    would double-count.
    """
    registry = metrics_registry()
    registry.reset()
    started = time.perf_counter()
    payload = execute_job(JobSpec(kind, params_json))
    return {
        "payload": payload,
        "compute_s": time.perf_counter() - started,
        "metrics": registry.to_dict(),
    }


def run_jobs(
    jobs: list[JobSpec],
    *,
    parallel: int = 1,
    cache: ResultCache | None = None,
    job_timeout_s: float = 600.0,
    retries: int = 1,
    progress: ProgressFn | None = None,
    tracer: TracerLike = NULL_TRACER,
    events: EventBusLike = NULL_EVENTS,
) -> RunReport:
    """Resolve every job; fan cache misses out over worker processes.

    Args:
        jobs: planned specs (duplicates by identity are collapsed).
        parallel: worker process count; ``<= 1`` runs everything serially
            in this process (bit-identical results either way).
        cache: optional on-disk cache consulted before and written after
            every execution.
        job_timeout_s: per-job wall-clock budget of a pooled job; an
            overrun counts as a crash (retried once, then recorded as a
            failure).  A serial run has no per-job timeout.
        retries: resubmissions per job after a crash/timeout (default 1).
        progress: optional callback receiving one line per resolved job.
        tracer: observability sink for wall-clock ``job`` spans and
            ``job.retry`` / ``job.failed`` events (default: no-op).
        events: live-telemetry bus receiving schema-v1 lifecycle records
            (``run_started``/``planned``/``cache_hit``/``started``/
            ``retried``/``finished``/``snapshot``/``run_finished``) for
            ``repro watch`` (default: no-op; the caller owns ``close()``).

    Every payload is primed into the active provider memo, so figure
    rendering in this process afterwards executes nothing.  Worker-side
    metrics snapshots are merged into this process's
    :func:`repro.obs.metrics.registry` as each pool job completes, so the
    process-wide registry after a parallel run holds the same totals a
    serial run would have recorded.  Per-job wall timings accumulate in
    :attr:`RunReport.job_timings` (the manifest's ``jobs`` section).
    """
    started = time.monotonic()
    report = RunReport(planned=len(jobs))

    unique: dict[tuple[str, str], JobSpec] = {}
    for spec in jobs:
        unique.setdefault(spec.identity, spec)
    report.unique = len(unique)
    total = len(unique)

    if events.enabled:
        events.emit("run_started", planned=report.planned, unique=report.unique)
        # One planned record per unique job: the content-keyed plan the
        # dashboard derives its ETA and in-flight labels from.
        for spec in unique.values():
            events.emit(
                "planned", key=job_key(spec), label=spec.label, job_kind=spec.kind
            )

    results: dict[tuple[str, str], dict[str, Any]] = {}

    def note(spec: JobSpec, status: str) -> None:
        if progress is not None:
            progress(f"[{len(results) + len(report.failures)}/{total}] {spec.label}: {status}")

    def timing(
        spec: JobSpec, source: str, compute_s: float, queue_s: float, attempts: int
    ) -> None:
        report.job_timings.append(
            {
                "label": spec.label,
                "key": job_key(spec),
                "kind": spec.kind,
                "source": source,
                "compute_s": compute_s,
                "queue_s": queue_s,
                "attempts": attempts,
            }
        )

    # Phase 1 — disk lookups.
    misses: list[JobSpec] = []
    for identity, spec in unique.items():
        payload = cache.get(job_key(spec)) if cache is not None else None
        if payload is not None:
            results[identity] = payload
            report.disk_hits += 1
            timing(spec, "cache", 0.0, 0.0, 0)
            if events.enabled:
                events.emit("cache_hit", key=job_key(spec), label=spec.label)
            note(spec, "cached")
        else:
            misses.append(spec)

    # The per-attempt steps both executors take.
    def finished(
        spec: JobSpec, status: str, compute_s: float, queue_s: float, attempts: int
    ) -> None:
        events.emit(
            "finished",
            key=job_key(spec),
            label=spec.label,
            status=status,
            compute_s=compute_s,
            queue_s=queue_s,
            attempts=attempts,
        )

    def attempted(spec: JobSpec, attempt: int) -> None:
        if events.enabled:
            events.emit("started", key=job_key(spec), label=spec.label, attempt=attempt)

    def failed(spec: JobSpec, error: str, attempt: int) -> bool:
        """Record a failed attempt; True when the job gets another one."""
        if attempt <= retries:
            report.retries += 1
            if tracer.enabled:
                tracer.event(
                    "job.retry", key=job_key(spec), label=spec.label, error=error, attempt=attempt
                )
            if events.enabled:
                events.emit(
                    "retried", key=job_key(spec), label=spec.label, attempt=attempt, error=error
                )
            return True
        report.failures.append(JobFailure(spec=spec, error=error, attempts=attempt))
        timing(spec, "failed", 0.0, 0.0, attempt)
        if tracer.enabled:
            tracer.event(
                "job.failed", key=job_key(spec), label=spec.label, error=error, attempts=attempt
            )
        if events.enabled:
            finished(spec, "failed", 0.0, 0.0, attempt)
        note(spec, f"FAILED ({error})")
        return False

    def resolved(
        spec: JobSpec,
        payload: dict[str, Any],
        attempt: int,
        started_ns: int,
        finished_ns: int,
        compute_s: float,
    ) -> None:
        """Record a payload; wall time past ``compute_s`` is queue time
        (exactly 0.0 for an in-process attempt)."""
        queue_s = max(0.0, (finished_ns - started_ns) / 1e9 - compute_s)
        results[spec.identity] = payload
        report.executed += 1
        report.simulations += int(payload.get("simulations", 0))
        timing(spec, "executed", compute_s, queue_s, attempt)
        if cache is not None:
            cache.put(job_key(spec), payload, meta={"label": spec.label})
        if events.enabled:
            finished(spec, "ok", compute_s, queue_s, attempt)
        note(spec, "done")
        if tracer.enabled:
            tracer.span_wall(
                "job",
                started_ns,
                finished_ns,
                label=spec.label,
                source="executed",
                attempts=attempt,
                compute_s=compute_s,
                queue_s=queue_s,
            )

    def snapshot(in_flight: int) -> None:
        if events.enabled:
            events.maybe_snapshot(
                done=report.disk_hits + report.executed,
                failed=len(report.failures),
                in_flight=in_flight,
                total=report.unique,
                metrics=metrics_registry().to_dict(),
            )

    # Phase 2 — execute misses (serial, or across a process pool).
    if parallel <= 1 or len(misses) <= 1:
        for spec in misses:
            for attempt in count(1):
                attempted(spec, attempt)
                started_ns = time.perf_counter_ns()
                try:
                    payload = execute_job(spec)
                except Exception as exc:  # noqa: BLE001 — a failed job must not kill the run
                    if failed(spec, repr(exc), attempt):
                        continue
                else:
                    finished_ns = time.perf_counter_ns()
                    compute_s = (finished_ns - started_ns) / 1e9
                    resolved(spec, payload, attempt, started_ns, finished_ns, compute_s)
                break
            snapshot(0)
    else:
        _run_pool(
            misses,
            parallel=parallel,
            job_timeout_s=job_timeout_s,
            attempted=attempted,
            failed=failed,
            resolved=resolved,
            snapshot=snapshot,
        )

    # Phase 3 — prime the in-process provider for the render phase.
    active = provider_module.active()
    for identity, payload in results.items():
        active.prime(unique[identity], payload)

    report.elapsed_s = time.monotonic() - started
    if events.enabled:
        done = report.disk_hits + report.executed
        # Unthrottled final snapshot so the dashboard always converges on
        # the end-of-run totals, then the terminal bracket.
        events.emit(
            "snapshot",
            done=done,
            failed=len(report.failures),
            in_flight=0,
            total=report.unique,
            metrics=metrics_registry().to_dict(),
        )
        events.emit(
            "run_finished",
            done=done,
            failed=len(report.failures),
            elapsed_s=report.elapsed_s,
        )
    return report


def _run_pool(
    misses: list[JobSpec],
    *,
    parallel: int,
    job_timeout_s: float,
    attempted: Callable[[JobSpec, int], None],
    failed: Callable[[JobSpec, str, int], bool],
    resolved: Callable[[JobSpec, dict[str, Any], int, int, int, float], None],
    snapshot: Callable[[int], None],
) -> None:
    """Scheduler loop: submit, collect, enforce timeouts, retry crashes."""
    # The pool machinery (multiprocessing, pickle, sockets) loads where a
    # pool runs, never in a serial run.  ``wait`` is read off the module,
    # so an instrumented ``engine.wait`` is the one the loop calls.
    from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    wait = sys.modules[__name__].wait
    max_workers = min(parallel, len(misses))
    executor = ProcessPoolExecutor(max_workers=max_workers)
    pending: dict[Future, tuple[JobSpec, float, int, int]] = {}
    abandoned = False

    def submit(spec: JobSpec, attempt: int) -> None:
        future = executor.submit(_pool_worker, spec.kind, spec.params_json)
        pending[future] = (
            spec,
            time.monotonic() + job_timeout_s,
            attempt,
            time.perf_counter_ns(),
        )
        attempted(spec, attempt)

    def resubmit_or_fail(spec: JobSpec, error: str, attempt: int) -> None:
        if failed(spec, error, attempt):
            submit(spec, attempt + 1)

    try:
        for spec in misses:
            submit(spec, 1)
        while pending:
            try:
                done, _ = wait(list(pending), timeout=0.25, return_when=FIRST_COMPLETED)
            except BrokenProcessPool:
                done = set()
            broken = False
            for future in done:
                spec, _deadline, attempt, submitted_ns = pending.pop(future)
                try:
                    envelope = future.result()
                except BrokenProcessPool:
                    # A worker died hard (segfault / os._exit): the whole
                    # pool is poisoned.  Rebuild it and resubmit everything
                    # still outstanding, charging each job one attempt.
                    broken = True
                    resubmit_later = [(spec, attempt)]
                    resubmit_later.extend(
                        (other, other_attempt)
                        for other, _d, other_attempt, _s in pending.values()
                    )
                    pending.clear()
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(max_workers=max_workers)
                    for other, other_attempt in resubmit_later:
                        resubmit_or_fail(other, "worker process died", other_attempt)
                    break
                except Exception as exc:  # noqa: BLE001 — job errors are data
                    resubmit_or_fail(spec, repr(exc), attempt)
                else:
                    finished_ns = time.perf_counter_ns()
                    metrics_registry().merge(envelope["metrics"])
                    payload, compute_s = envelope["payload"], float(envelope["compute_s"])
                    resolved(spec, payload, attempt, submitted_ns, finished_ns, compute_s)
            snapshot(len(pending))
            if broken:
                continue
            now = time.monotonic()
            for future, (spec, deadline, attempt, _submitted_ns) in list(pending.items()):
                if now <= deadline:
                    continue
                # A running worker cannot be interrupted; abandon the
                # future (its eventual result is ignored) and move on.
                abandoned = True
                future.cancel()
                del pending[future]
                resubmit_or_fail(spec, f"timeout after {job_timeout_s:.0f}s", attempt)
    finally:
        # Join the pool when every future resolved; a non-waiting
        # shutdown leaves the management thread to the interpreter's
        # atexit hook, which races its own pipe teardown and spews
        # "Exception ignored" noise on exit.  Only an abandoned
        # (timed-out) future justifies not waiting.
        executor.shutdown(wait=not abandoned, cancel_futures=True)


def stderr_progress(line: str) -> None:
    """Default progress sink: one line per job on stderr."""
    stderr_line(line)
