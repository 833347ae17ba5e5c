"""End-to-end benchmark of the DeWrite reproduction: six cold workloads.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME] [--seed N] [--repeats R]
        [--seconds S] [--trace 0|1] [--scale F] [--out FILE] [--write-golden]

Each run of a workload is a fresh child process (one at a time) with the
result cache off and a fresh provider memo.  A workload is run untraced
``R`` times, and again while the next run still ends within ``S`` seconds
when ``--seconds`` is given.  The end-to-end metrics are the medians of
those runs, with host times scaled to a fixed host pace (see
``child.host_pace``).  With ``--trace 1`` (the default) one traced run
follows and gives the per-layer metrics.  ``BENCHMARK.json``'s command is
run as ``--workload W --seed N --seconds 18 --trace 0|1``.

Every metric is printed by name with its unit, the full record is written
as JSON to ``--out``, and the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace 1``).
The command exits 1 when any operation fails a check: an invariant, a
digest that differs between runs of the same seed (traced included), a
digest that differs from the committed golden or a golden recorded for
other params (seeds with a golden, at full scale), or fallback totals
that differ between the traced and untraced runs.  It exits 2 without a
result when the program's sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import cases
import layertrace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
GOLDEN_DIR = HERE / "golden"
OUT_DIR = HERE / "out"
#: A child that takes longer than this is killed and its run counted failed.
CHILD_TIMEOUT_S = 40.0

#: name → (unit, better) of the end-to-end metrics.
END_TO_END = {
    "accesses_per_s": ("acc/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def per_layer_units() -> dict[str, tuple[str, str]]:
    """name → (unit, better) of the per-layer metrics, in report order."""
    units: dict[str, tuple[str, str]] = {}
    for layer in layertrace.LAYERS:
        units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.calls"] = ("count", "lower")
    units |= {
        "unattributed.self_s": ("s", "lower"),
        "runner.queue_s": ("s", "lower"),
        "runner.pool_wait_s": ("s", "lower"),
        "serve.shard_p50_s": ("s", "lower"),
        "serve.shard_max_s": ("s", "lower"),
        "nvm.bank_wait_ns": ("sim_ns", "lower"),
        "system.batches": ("count", "lower"),
        "system.batch_p50_ms": ("ms", "lower"),
        "system.batch_tail_ms": ("ms", "lower"),
        "runner.retries": ("count", "lower"),
        "core.interface.fallback_frac": ("ratio", "lower"),
        "core.dedup_ratio": ("ratio", "higher"),
        "core.prediction_accuracy": ("ratio", "higher"),
        "core.metadata_hit_ratio": ("ratio", "higher"),
        "core.verify_reads_per_write": ("ratio", "lower"),
        "core.wasted_encryption_ratio": ("ratio", "lower"),
        "serve.admitted_frac": ("ratio", "higher"),
        "faults.intact_frac": ("ratio", "higher"),
        "bench.trace_overhead_frac": ("ratio", "lower"),
    }
    return units


def _share(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict[str, Any], untraced_run_s: float) -> dict[str, float]:
    """Per-layer metric values from one traced child result."""
    trace = traced["trace"]
    facts = traced["facts"]
    dewrite = facts.get("dewrite", {})
    shards = facts.get("shard_compute_s", [])
    values: dict[str, float] = {}
    for layer, totals in trace["layers"].items():
        values[f"{layer}.self_s"] = totals["self_s"]
        values[f"{layer}.calls"] = totals["calls"]
    values |= {
        "unattributed.self_s": trace["unattributed_s"],
        "runner.queue_s": facts.get("queue_s", 0.0),
        "runner.pool_wait_s": trace["pool_wait_s"],
        "serve.shard_p50_s": statistics.median(shards) if shards else 0.0,
        "serve.shard_max_s": max(shards, default=0.0),
        "nvm.bank_wait_ns": facts.get("bank_wait_ns", 0.0),
        "system.batches": trace["batches"],
        "system.batch_p50_ms": trace["batch_p50_s"] * 1e3,
        "system.batch_tail_ms": trace["batch_tail_s"] * 1e3,
        "runner.retries": facts.get("retries", 0),
        "core.interface.fallback_frac": _share(trace["fallback_total"], trace["batches"]),
        "core.dedup_ratio": _share(
            dewrite.get("writes_deduplicated", 0), dewrite.get("writes_requested", 0)
        ),
        "core.prediction_accuracy": _share(
            dewrite.get("correct_predictions", 0), dewrite.get("predictions", 0)
        ),
        "core.metadata_hit_ratio": _share(
            trace["metadata_hits"], trace["metadata_hits"] + trace["metadata_misses"]
        ),
        "core.verify_reads_per_write": _share(
            dewrite.get("verify_reads", 0), dewrite.get("writes_requested", 0)
        ),
        "core.wasted_encryption_ratio": _share(
            dewrite.get("wasted_encryptions", 0),
            dewrite.get("wasted_encryptions", 0) + dewrite.get("writes_stored", 0),
        ),
        "serve.admitted_frac": _share(facts.get("admitted", 0), facts.get("offered", 0)),
        "faults.intact_frac": _share(facts.get("intact", 0), facts.get("total_lines", 0)),
        "bench.trace_overhead_frac": traced["run_s"] / untraced_run_s - 1.0,
    }
    return values


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def _stop_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(name: str, params: dict[str, Any], seed: int, result: Path,
          *flags: str) -> dict[str, Any]:
    """Run one child (with extra ``flags``) to completion; its result, or
    ``{"error": ...}``."""
    result.unlink(missing_ok=True)
    spawned_at = time.monotonic()
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", name, "--params", json.dumps(params), "--seed", str(seed),
        "--spawned-at", repr(spawned_at), "--result", str(result), *flags,
    ]
    # The child's stdout goes to file descriptor 2, so this process's
    # stdout ends with the result line.
    child = subprocess.Popen(command, env=_child_env(), stdout=2, start_new_session=True)
    try:
        code = child.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _stop_group(child.pid)
        child.wait()
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f}s"}
    _stop_group(child.pid)
    if code != 0 or not result.exists():
        return {"error": f"child exited with code {code}"}
    return json.loads(result.read_text())


def golden_for(name: str, args: argparse.Namespace,
               params: dict[str, Any]) -> dict[str, Any] | None:
    """The golden this invocation is checked against, or None.

    ``--write-golden`` checks the runs only against each other.  Off full
    scale a golden recorded for other params does not apply; at full
    scale it is kept, and :func:`check_runs` fails every operation on it.
    """
    path = GOLDEN_DIR / f"{name}-seed{args.seed}.json"
    if args.write_golden or not path.exists():
        return None
    golden = json.loads(path.read_text())
    if golden["params"] != params and args.scale != 1:
        return None
    return golden


def _summary(values: list[float], unit: str) -> dict[str, Any]:
    return {
        "value": statistics.median(values),
        "unit": unit,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def digests(run: dict[str, Any]) -> dict[str, str]:
    """Operation name → payload digest of one child result."""
    return {op["name"]: op["digest"] for op in run["operations"]}


def check_runs(
    labelled: list[tuple[str, dict[str, Any]]],
    reference: dict[str, str],
    golden: dict[str, Any] | None,
    params: dict[str, Any],
) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every operation of every run.

    An operation fails on its own invariant errors, on a digest that
    differs from ``reference`` (the first untraced run) or from the
    golden, on a golden recorded for other ``params``, and, in the traced
    run, when the ``batch.fallback.*`` totals differ from the first
    untraced run's.  A run that crashed fails as many operations as the
    reference has; a golden operation that no run produced fails too.
    """
    attempted = failed = 0
    failures: list[str] = []
    untraced_fallbacks = next(
        (run["fallbacks"] for label, run in labelled if "error" not in run), {}
    )
    stale = golden is not None and golden["params"] != params
    for label, run in labelled:
        if "error" in run:
            count = max(1, len(reference))
            attempted += count
            failed += count
            failures.append(f"{label}: {run['error']}")
            continue
        operations = run["operations"]
        if golden is not None:
            missing = set(golden["digests"]) - {op["name"] for op in operations}
            attempted += len(missing)
            failed += len(missing)
            failures.extend(f"{label}: {op}: missing" for op in sorted(missing))
        for op in operations:
            errors = list(op["errors"])
            if op["digest"] != reference.get(op["name"]):
                errors.append("digest differs from the first untraced run")
            if golden is not None and op["digest"] != golden["digests"].get(op["name"]):
                errors.append("digest differs from the golden")
            if stale:
                errors.append(f"golden was recorded for params {golden['params']}")
            if run["traced"] and run["fallbacks"] != untraced_fallbacks:
                errors.append(
                    f"fallbacks {run['fallbacks']} differ from untraced {untraced_fallbacks}"
                )
            attempted += 1
            if errors:
                failed += 1
                failures.append(f"{label}: {op['name']}: {'; '.join(errors)}")
    return attempted, failed, failures


def run_workload(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """All runs of one workload, checked and summarised."""
    workload = cases.WORKLOADS[name]
    params = cases.params_for(workload, args.scale)
    work = OUT_DIR / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # After --repeats runs, another starts only if one as long as the last
    # still ends within --seconds.
    runs: list[dict[str, Any]] = []
    started = time.monotonic()
    last_s = 0.0
    while len(runs) < args.repeats or time.monotonic() - started + last_s <= args.seconds:
        run_started = time.monotonic()
        runs.append(spawn(name, params, args.seed, work / f"run-{len(runs)}.json"))
        last_s = time.monotonic() - run_started
    traced = None
    if args.trace == 1:
        traced = spawn(name, params, args.seed, work / "traced.json",
                       "--trace-dir", str(work / "trace"))

    ok_runs = [run for run in runs if "error" not in run]
    reference = digests(ok_runs[0]) if ok_runs else {}
    golden = golden_for(name, args, params)
    labelled = [(f"run {i}", run) for i, run in enumerate(runs)]
    if traced is not None:
        labelled.append(("traced run", traced))
    attempted, failed, failures = check_runs(labelled, reference, golden, params)
    if args.write_golden:
        golden_status = "written" if not failed and ok_runs else "not written"
    elif golden is None:
        golden_status = "unchecked"
    elif golden["params"] == params and all(
        digests(run) == golden["digests"] for _, run in labelled if "error" not in run
    ):
        golden_status = "matched"
    else:
        golden_status = "mismatch"

    record: dict[str, Any] = {
        "why": workload.why,
        "params": params,
        "seed": args.seed,
        "operations": {"attempted": attempted, "failed": failed},
        "failures": failures,
        "golden": golden_status,
        "digests": reference,
        "fallbacks": ok_runs[0]["fallbacks"] if ok_runs else {},
        "runs": [
            {key: run.get(key) for key in ("error", "setup_s", "run_s", "wall_setup_s",
                                           "wall_run_s", "pace_s", "peak_rss_mb")}
            | {"accesses": run.get("facts", {}).get("accesses")}
            for run in runs
        ],
        "end_to_end": {},
        "per_layer": {},
    }
    if ok_runs:
        series = {
            "accesses_per_s": [r["facts"]["accesses"] / r["run_s"] for r in ok_runs],
            "setup_s": [r["setup_s"] for r in ok_runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in ok_runs],
        }
        record["end_to_end"] = {
            metric: _summary(values, END_TO_END[metric][0]) for metric, values in series.items()
        }
        # The same medians in unscaled wall time, for reference.
        record["wall"] = {
            "accesses_per_s": _summary(
                [r["facts"]["accesses"] / r["wall_run_s"] for r in ok_runs], "acc/s"
            ),
            "setup_s": _summary([r["wall_setup_s"] for r in ok_runs], "s"),
        }
    record["end_to_end"]["failed_frac"] = {
        "value": failed / attempted if attempted else 1.0,
        "unit": "ratio",
        "failed": failed,
        "attempted": attempted,
    }
    if traced is not None and "error" not in traced and ok_runs:
        median_run_s = statistics.median(r["run_s"] for r in ok_runs)
        units = per_layer_units()
        values = layer_metrics(traced, median_run_s)
        record["per_layer"] = {
            metric: {"value": values[metric], "unit": units[metric][0]} for metric in units
        }
        trace = traced["trace"]
        record["per_layer"]["system.batch_tail_ms"] |= {
            "percentile": trace["batch_tail_percentile"],
            "n": trace["batches"],
        }
        record["traced"] = {
            "run_s": traced["run_s"],
            "wall_run_s": traced["wall_run_s"],
            "unattributed_share": trace["unattributed_s"] / traced["wall_run_s"],
            "workers": trace["workers"],
            "top_functions": trace["top_functions"],
        }
        chrome = OUT_DIR / f"trace-{name}.json"
        chrome.write_text(json.dumps(trace["chrome"]))
        record["traced"]["chrome_trace"] = chrome.name

    if golden_status == "written":
        GOLDEN_DIR.mkdir(exist_ok=True)
        blob = {"workload": name, "seed": args.seed, "params": params, "digests": reference}
        path = GOLDEN_DIR / f"{name}-seed{args.seed}.json"
        path.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    return record


def _print_workload(name: str, record: dict[str, Any]) -> None:
    ops = record["operations"]
    print(f"{name}: seed {record['seed']}, {ops['attempted']} operations, "
          f"{ops['failed']} failed, golden {record['golden']}")
    for metric, entry in record["end_to_end"].items():
        extra = f"  (min {entry['min']:.6g}, max {entry['max']:.6g}, n {entry['n']})" \
            if "n" in entry else ""
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}{extra}")
    for metric, entry in record["per_layer"].items():
        print(f"  {metric:<34} {entry['value']:>14.6g} {entry['unit']}")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(cases.WORKLOADS),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3,
                        help="least number of untraced runs (default 3)")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating untraced runs while the next one ends "
                             "within this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1,
                        help="1 (default): add a traced run and end with the per-layer "
                             "metrics; 0: untraced runs only, end with the end-to-end metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply every access budget (goldens hold at 1 only)")
    parser.add_argument("--out", default=str(OUT_DIR / "result.json"),
                        help="where to write the JSON record")
    parser.add_argument("--write-golden", action="store_true",
                        help="record this seed's digests as the golden, checking the "
                             "runs only against each other")
    args = parser.parse_args(argv)
    if args.repeats < 1 or args.scale <= 0:
        parser.error("--repeats must be at least 1 and --scale positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2e: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    names = [args.workload] if args.workload else list(cases.WORKLOADS)
    records = {}
    for name in names:
        records[name] = run_workload(name, args)
        _print_workload(name, records[name])

    attempted = sum(r["operations"]["attempted"] for r in records.values())
    failed = sum(r["operations"]["failed"] for r in records.values())
    document = {
        "schema": 1,
        "seed": args.seed,
        "scale": args.scale,
        "repeats": args.repeats,
        "seconds": args.seconds,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": os.cpu_count(),
        },
        "workloads": records,
    }
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(document, indent=1) + "\n")

    section = "per_layer" if args.trace == 1 else "end_to_end"
    wanted = per_layer_units() if args.trace == 1 else END_TO_END
    metrics = {}
    for name, record in records.items():
        prefix = "" if len(records) == 1 else f"{name}."
        for metric in wanted:
            entry = record[section].get(metric)
            if entry is not None:
                metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
