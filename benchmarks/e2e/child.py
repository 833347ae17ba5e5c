"""One cold run of one workload, in a fresh process.

Usage (``run.py`` spawns this; it is not meant to be run by hand)::

    python child.py --workload NAME --params JSON --seed N \
        --spawned-at MONOTONIC --result PATH [--trace-dir DIR]

Set-up (imports, registries, plan, config) runs first; its wall time runs
from ``run.py``'s spawn until the first job is ready to dispatch, on the
system-wide monotonic clock both processes read.  :func:`host_pace` is
taken after set-up and again after the run, and ``setup_s``/``run_s`` are
the wall times scaled to :data:`REFERENCE_PACE_S`.  With ``--trace-dir`` the layer
wrappers of :mod:`layertrace` are installed after set-up and before any
job runs, and pool workers flush their records into that directory.
The result (timings, checked operations, facts, trace summary) is
written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import time
from pathlib import Path
from typing import Any

import cases


def _peak_rss_mb() -> float:
    """max(ru_maxrss) over this process and its reaped pool workers."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0  # Linux reports KiB


#: Host pace, in seconds per reference loop, that the reported times are
#: scaled to.  The loop takes about 1.5 ms on an idle vCPU of the 2-vCPU
#: Xeon VM the bounds were set on, and about 2.4 ms when that vCPU's host
#: core is contended.
REFERENCE_PACE_S = 0.002


def _reference_loop() -> int:
    """Fixed interpreter work (dict lookups, integer arithmetic) of the
    kind the simulator's Python kernels do."""
    table: dict[int, int] = {}
    total = 0
    for i in range(8000):
        key = (i * 40503) & 1023
        total += table.get(key, i) ^ i
        table[key] = total & 0xFFFF
    return total


def _median_loop_s(samples: int) -> float:
    durations = []
    for _ in range(samples):
        start = time.perf_counter()
        _reference_loop()
        durations.append(time.perf_counter() - start)
    return statistics.median(durations)


def host_pace(every_cpu: bool, samples: int = 10) -> float:
    """Median seconds of the reference loop: how fast the host runs this
    process right now.

    A shared host slows each vCPU on its own, so a workload whose pool
    spreads over every CPU (``every_cpu``) gets the mean of the per-CPU
    paces, each taken with this process pinned to that CPU.
    """
    if not every_cpu:
        return _median_loop_s(samples)
    cpus = os.sched_getaffinity(0)
    try:
        paces = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            paces.append(_median_loop_s(samples))
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.fmean(paces)


def _trace_summary(
    main: dict[str, Any],
    prepared: cases.Prepared,
    run_s: float,
    operations: list[cases.Operation],
    trace_dir: Path,
    fallbacks: dict[str, float],
) -> dict[str, Any]:
    import layertrace

    records = [main] + layertrace.read_worker_records(trace_dir)
    seen = {
        span[6] for record in records for span in record["spans"] if span[2] == "execute_job"
    }
    for spec, operation in zip(prepared.jobs, operations):
        if layertrace.job_id(spec) not in seen:
            operation.errors.append("trace: no execute_job span arrived for this job")

    batches = [
        duration for record in records for duration in layertrace.top_level_batches(record["spans"])
    ]
    tail_rank, tail_s = layertrace.tail_percentile(batches)
    hits = sum(record["metadata"][0] for record in records)
    misses = sum(record["metadata"][1] for record in records)
    return {
        "layers": layertrace.layer_totals(records),
        # Wall time no wrapped call covers, plus the dispatch roots' own
        # time outside every layer call (pool wait excluded).
        "unattributed_s": max(0.0, run_s - main["root_s"]) + main["root_self_s"],
        "pool_wait_s": main["pool_wait_s"],
        "batches": len(batches),
        "batch_p50_s": layertrace.percentile(batches, 50.0),
        "batch_tail_s": tail_s,
        "batch_tail_percentile": tail_rank,
        "fallback_total": sum(fallbacks.values()),
        "metadata_hits": hits,
        "metadata_misses": misses,
        "top_functions": layertrace.top_functions(records),
        "chrome": layertrace.chrome_trace(records, main["origin_s"]),
        "workers": sorted({record["pid"] for record in records[1:]}),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--params", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default="")
    args = parser.parse_args(argv)

    workload = cases.WORKLOADS[args.workload]
    params = json.loads(args.params)
    prepared = cases.prepare(workload, params, args.seed)
    wall_setup_s = time.monotonic() - args.spawned_at
    pooled = params.get("parallel", 1) > 1
    pace_before = host_pace(pooled)

    recorder = None
    if args.trace_dir:
        import layertrace

        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for stale in trace_dir.glob("worker-*.jsonl"):
            stale.unlink()
        recorder = layertrace.Recorder(flush_dir=trace_dir)
        layertrace.install(recorder)

    start = time.perf_counter()
    outcome = prepared.dispatch()
    wall_run_s = time.perf_counter() - start
    pace_after = host_pace(pooled)
    if recorder is not None:
        main_record = recorder.snapshot() | {
            "root_s": recorder.root_s,
            "root_self_s": recorder.root_self_s,
            "pool_wait_s": recorder.pool_wait_s,
            "origin_s": start,
        }

    operations, facts = prepared.evaluate(outcome)
    fallbacks = cases.fallbacks()
    result: dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": recorder is not None,
        # Host time at REFERENCE_PACE_S: set-up scaled by the pace right
        # after it, the run by the mean pace on either side of it.
        "setup_s": wall_setup_s * REFERENCE_PACE_S / pace_before,
        "run_s": wall_run_s * REFERENCE_PACE_S / ((pace_before + pace_after) / 2),
        "wall_setup_s": wall_setup_s,
        "wall_run_s": wall_run_s,
        "pace_s": [pace_before, pace_after],
        "facts": facts,
        "fallbacks": fallbacks,
    }
    if recorder is not None:
        result["trace"] = _trace_summary(
            main_record, prepared, wall_run_s, operations, trace_dir, fallbacks
        )
    result["operations"] = [
        {"name": op.name, "digest": op.digest, "errors": op.errors} for op in operations
    ]
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
