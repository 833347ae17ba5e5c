"""Run manifests: a machine-readable record of one ``repro run`` invocation.

Every ``python -m repro run`` writes a ``manifest.json`` next to its
results answering, a month later, *what exactly produced these numbers*:
the git commit, the full command, trace settings and seeds, one timing
entry per resolved job (cache hit vs. executed, queue wait vs. compute),
the cache-stats totals, the merged metrics snapshot and the peak RSS.

The schema is deliberately flat JSON with a version stamp;
:func:`validate_manifest` returns the list of schema problems (empty =
valid), which ``python -m repro stats`` and the CI observability job use
as the gate.

Schema history: version 2 added the optional ``faults`` section written
by ``python -m repro faults`` (per-scenario crash-recovery verdicts);
version 3 added the optional ``stages`` section written by
``python -m repro trace --manifest`` (a
:meth:`~repro.obs.stages.StageAccumulator.to_dict` snapshot).  Older
manifests remain valid and loadable.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

#: Bump when the manifest shape changes; `stats` refuses unknown versions.
MANIFEST_SCHEMA_VERSION = 3

#: Older versions that are still valid (purely-additive schema changes).
ACCEPTED_SCHEMA_VERSIONS = (1, 2, MANIFEST_SCHEMA_VERSION)

#: Marker distinguishing manifests from other JSON lying around.
MANIFEST_KIND = "repro-run-manifest"

_JOB_SOURCES = ("cache", "executed", "failed")


class ManifestError(ValueError):
    """Raised when a manifest fails schema validation on load."""


def git_sha() -> str | None:
    """The checkout's HEAD commit, or ``None`` outside a git repository."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5.0,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = result.stdout.strip()
    return sha if result.returncode == 0 and sha else None


def peak_rss_kb() -> int | None:
    """Peak resident set size of this process in KiB (``None`` if unknown)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - ru_maxrss is bytes there
        peak //= 1024
    return int(peak)


def build_manifest(
    *,
    figures: list[str],
    settings: dict[str, Any],
    options: dict[str, Any],
    jobs: list[dict[str, Any]],
    cache: dict[str, Any],
    failures: list[dict[str, Any]],
    elapsed_s: float,
    metrics: dict[str, Any] | None = None,
    command: list[str] | None = None,
    timeline: dict[str, Any] | None = None,
    faults: dict[str, Any] | None = None,
    stages: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble a schema-valid manifest for one run.

    ``timeline`` is the optional merged
    :meth:`~repro.obs.timeline.TimelineCollector.to_dict` snapshot of a
    windowed run (``python -m repro timeline``); ``faults`` is the
    optional per-scenario verdict section of a fault campaign
    (``python -m repro faults``); ``stages`` is the optional
    :meth:`~repro.obs.stages.StageAccumulator.to_dict` snapshot of a
    traced run's stages (``python -m repro trace --manifest``).  Plain
    ``run`` manifests omit all three fields entirely.
    """
    payload = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "kind": MANIFEST_KIND,
        "created_unix_s": time.time(),
        "command": list(command if command is not None else sys.argv),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "figures": list(figures),
        "settings": dict(settings),
        "options": dict(options),
        "jobs": [dict(job) for job in jobs],
        "cache": dict(cache),
        "failures": [dict(failure) for failure in failures],
        "elapsed_s": elapsed_s,
        "peak_rss_kb": peak_rss_kb(),
        "metrics": dict(metrics) if metrics is not None else {},
    }
    if timeline is not None:
        payload["timeline"] = dict(timeline)
    if faults is not None:
        payload["faults"] = dict(faults)
    if stages is not None:
        payload["stages"] = dict(stages)
    return payload


def validate_manifest(payload: Any) -> list[str]:
    """Schema problems of one manifest payload (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"manifest must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") not in ACCEPTED_SCHEMA_VERSIONS:
        problems.append(
            f"schema must be one of {ACCEPTED_SCHEMA_VERSIONS}, "
            f"got {payload.get('schema')!r}"
        )
    if payload.get("kind") != MANIFEST_KIND:
        problems.append(f"kind must be {MANIFEST_KIND!r}, got {payload.get('kind')!r}")

    def require(field: str, types: tuple[type, ...], allow_none: bool = False) -> Any:
        if field not in payload:
            problems.append(f"missing field {field!r}")
            return None
        value = payload[field]
        if value is None and allow_none:
            return None
        if not isinstance(value, types):
            problems.append(
                f"field {field!r} must be {'/'.join(t.__name__ for t in types)}, "
                f"got {type(value).__name__}"
            )
            return None
        return value

    require("created_unix_s", (int, float))
    require("command", (list,))
    require("git_sha", (str,), allow_none=True)
    require("python", (str,))
    require("platform", (str,))
    require("elapsed_s", (int, float))
    require("peak_rss_kb", (int,), allow_none=True)
    require("metrics", (dict,))
    require("options", (dict,))

    figures = require("figures", (list,))
    if figures is not None and not all(isinstance(f, str) for f in figures):
        problems.append("field 'figures' must contain only strings")

    settings = require("settings", (dict,))
    if settings is not None:
        for key, types in (("accesses", (int,)), ("seed", (int,)), ("applications", (list,))):
            if key not in settings:
                problems.append(f"settings missing {key!r}")
            elif not isinstance(settings[key], types):
                problems.append(f"settings[{key!r}] has wrong type")

    jobs = require("jobs", (list,))
    if jobs is not None:
        for index, job in enumerate(jobs):
            if not isinstance(job, dict):
                problems.append(f"jobs[{index}] must be an object")
                continue
            for key in ("label", "key", "kind", "source"):
                if not isinstance(job.get(key), str):
                    problems.append(f"jobs[{index}].{key} must be a string")
            if job.get("source") not in _JOB_SOURCES:
                problems.append(
                    f"jobs[{index}].source must be one of {_JOB_SOURCES}, "
                    f"got {job.get('source')!r}"
                )
            for key in ("compute_s", "queue_s"):
                if not isinstance(job.get(key), (int, float)):
                    problems.append(f"jobs[{index}].{key} must be a number")
            if not isinstance(job.get("attempts"), int):
                problems.append(f"jobs[{index}].attempts must be an integer")

    cache = require("cache", (dict,))
    if cache is not None:
        for key in ("planned", "unique", "disk_hits", "executed", "simulations", "retries"):
            if not isinstance(cache.get(key), int):
                problems.append(f"cache.{key} must be an integer")

    failures = require("failures", (list,))
    if failures is not None:
        for index, failure in enumerate(failures):
            if not isinstance(failure, dict) or not isinstance(failure.get("error"), str):
                problems.append(f"failures[{index}] must be an object with an 'error' string")

    # Optional windowed-timeline section (written by `repro timeline`).
    if "timeline" in payload:
        timeline = payload["timeline"]
        if not isinstance(timeline, dict):
            problems.append("field 'timeline' must be an object when present")
        else:
            if not isinstance(timeline.get("window_ns"), (int, float)):
                problems.append("timeline.window_ns must be a number")
            if not isinstance(timeline.get("windows"), dict):
                problems.append("timeline.windows must be an object")

    # Optional fault-campaign section (written by `repro faults`).
    if "faults" in payload:
        faults = payload["faults"]
        if not isinstance(faults, dict):
            problems.append("field 'faults' must be an object when present")
        else:
            if not isinstance(faults.get("interval_ns"), (int, float)):
                problems.append("faults.interval_ns must be a number")
            scenarios = faults.get("scenarios")
            if not isinstance(scenarios, list):
                problems.append("faults.scenarios must be a list")
                scenarios = []
            for index, scenario in enumerate(scenarios):
                if not isinstance(scenario, dict):
                    problems.append(f"faults.scenarios[{index}] must be an object")
                    continue
                for key in ("workload", "controller", "policy"):
                    if not isinstance(scenario.get(key), str):
                        problems.append(
                            f"faults.scenarios[{index}].{key} must be a string"
                        )
                verdicts = scenario.get("report")
                if not isinstance(verdicts, dict) or not all(
                    isinstance(verdicts.get(key), int)
                    for key in ("total_lines", "intact", "stale", "lost")
                ):
                    problems.append(
                        f"faults.scenarios[{index}].report must carry integer "
                        f"total_lines/intact/stale/lost"
                    )
                elif (
                    verdicts["intact"] + verdicts["stale"] + verdicts["lost"]
                    != verdicts["total_lines"]
                ):
                    problems.append(
                        f"faults.scenarios[{index}].report verdicts do not "
                        f"partition total_lines"
                    )

    # Optional stage-accounting section (written by `repro trace --manifest`).
    if "stages" in payload:
        stages = payload["stages"]
        if not isinstance(stages, dict):
            problems.append("field 'stages' must be an object when present")
        else:
            if not isinstance(stages.get("schema"), int):
                problems.append("stages.schema must be an integer")
            if not isinstance(stages.get("bounds"), list):
                problems.append("stages.bounds must be a list")
            entries = stages.get("stages")
            if not isinstance(entries, dict):
                problems.append("stages.stages must be an object")
                entries = {}
            for name, entry in entries.items():
                if not isinstance(entry, dict):
                    problems.append(f"stages.stages[{name!r}] must be an object")
                    continue
                if not isinstance(entry.get("count"), int):
                    problems.append(f"stages.stages[{name!r}].count must be an integer")
                for key in ("total_ns", "min_ns", "max_ns"):
                    if not isinstance(entry.get(key), (int, float)):
                        problems.append(f"stages.stages[{name!r}].{key} must be a number")
                if not isinstance(entry.get("counts"), list):
                    problems.append(f"stages.stages[{name!r}].counts must be a list")
    return problems


def summarize_manifest(payload: dict[str, Any]) -> dict[str, Any]:
    """Machine-readable digest of one manifest.

    This is what ``python -m repro stats`` renders (``--json`` emits it
    as is) and what the ``diff`` verb and CI consume: validation verdict,
    provenance, job counts by source, cache totals, metrics, and (when
    present) timeline, faults and stages totals — never the raw job list,
    which can be huge.
    """
    problems = validate_manifest(payload)
    jobs = payload.get("jobs", [])
    by_source: dict[str, int] = {}
    if isinstance(jobs, list):
        for job in jobs:
            if isinstance(job, dict):
                source = str(job.get("source"))
                by_source[source] = by_source.get(source, 0) + 1
    summary: dict[str, Any] = {
        "valid": not problems,
        "problems": problems,
        "schema": payload.get("schema"),
        "git_sha": payload.get("git_sha"),
        "python": payload.get("python"),
        "command": payload.get("command", []),
        "figures": payload.get("figures", []),
        "settings": payload.get("settings", {}),
        "options": payload.get("options", {}),
        "jobs": {
            "total": len(jobs) if isinstance(jobs, list) else 0,
            "by_source": by_source,
        },
        "cache": payload.get("cache", {}),
        "failures": len(payload.get("failures", []) or []),
        "elapsed_s": payload.get("elapsed_s"),
        "peak_rss_kb": payload.get("peak_rss_kb"),
        "metrics": payload.get("metrics", {}),
    }
    timeline = payload.get("timeline")
    if isinstance(timeline, dict):
        windows = timeline.get("windows", {})
        summary["timeline"] = {
            "window_ns": timeline.get("window_ns"),
            "windows": len(windows) if isinstance(windows, dict) else 0,
            "evicted_windows": timeline.get("evicted_windows", 0),
        }
    faults = payload.get("faults")
    if isinstance(faults, dict):
        scenarios = faults.get("scenarios", [])
        verdicts = {"intact": 0, "stale": 0, "lost": 0}
        if isinstance(scenarios, list):
            for scenario in scenarios:
                report = scenario.get("report") if isinstance(scenario, dict) else None
                if isinstance(report, dict):
                    for key in verdicts:
                        if isinstance(report.get(key), int):
                            verdicts[key] += report[key]
        summary["faults"] = {
            "interval_ns": faults.get("interval_ns"),
            "scenarios": len(scenarios) if isinstance(scenarios, list) else 0,
            **verdicts,
        }
    stages = payload.get("stages")
    if isinstance(stages, dict):
        entries = stages.get("stages", {})
        samples = 0
        total_ns = 0.0
        if isinstance(entries, dict):
            for entry in entries.values():
                if isinstance(entry, dict):
                    if isinstance(entry.get("count"), int):
                        samples += entry["count"]
                    if isinstance(entry.get("total_ns"), (int, float)):
                        total_ns += entry["total_ns"]
        summary["stages"] = {
            "stages": len(entries) if isinstance(entries, dict) else 0,
            "samples": samples,
            "total_ns": total_ns,
        }
    return summary


def write_manifest(path: str | Path, payload: dict[str, Any]) -> Path:
    """Atomically write one manifest (temp file + rename)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    handle = tempfile.NamedTemporaryFile(
        mode="w", dir=target.parent, suffix=".tmp", delete=False, encoding="utf-8"
    )
    try:
        with handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, target)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
    return target


def load_manifest(path: str | Path, *, validate: bool = True) -> dict[str, Any]:
    """Read one manifest; raises :class:`ManifestError` when invalid."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as error:
        raise ManifestError(f"cannot read manifest {path}: {error}") from error
    except json.JSONDecodeError as error:
        raise ManifestError(f"manifest {path} is not valid JSON: {error}") from error
    if validate:
        problems = validate_manifest(payload)
        if problems:
            raise ManifestError(
                f"manifest {path} failed validation: " + "; ".join(problems)
            )
    return payload
