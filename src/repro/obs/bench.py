"""Continuous microbenchmark harness with a regression gate.

ROADMAP's north star ("as fast as the hardware allows") needs a producer
of performance history: this module times the repo's hot paths —

- one full write/read simulation loop per registered controller mode;
- the four hash circuits of Table I (slice-by-8 CRC-32, the SWAR burst
  kernels for SHA-1 / MD5, and the stdlib-backed
  :func:`~repro.hashes.crc32.line_fingerprint`);
- the metadata cache's access loop;
- cold trace synthesis for a duplicate-heavy and a fresh-content
  application —

and writes a schema-versioned ``BENCH_<gitsha>.json`` record that
:func:`compare_records` gates against a baseline with noise-aware
relative thresholds.

Sampling reuses :mod:`repro.obs.overhead`'s method: all cases are
interleaved round-robin across repeats and the per-case **minimum** is
kept, so a one-off scheduler burst during any single repeat inflates at
most that repeat, never the recorded best.  The gate compares best vs
best, and a regression must exceed both a relative threshold and an
absolute floor (timer jitter dominates sub-100 µs cases).
"""

from __future__ import annotations

import json
import platform
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.drift import match, relative_change, verdict
from repro.obs.manifest import git_sha

#: Bump when the bench record shape changes.
BENCH_SCHEMA_VERSION = 2

#: Schema versions :func:`load_record` still accepts (v1 records lack the
#: optional per-controller ``stages`` breakdown, nothing else changed).
ACCEPTED_BENCH_SCHEMA_VERSIONS = (1, 2)

#: Marker distinguishing bench records from other JSON lying around.
BENCH_KIND = "repro-bench"

#: Ignore timing deltas smaller than this, whatever the relative change —
#: below it the host timer and allocator noise swamp any real signal.
ABSOLUTE_FLOOR_S = 1e-4


@dataclass(frozen=True)
class BenchCase:
    """One timed hot path.

    ``make`` builds fresh state and returns the thunk to time, so setup
    (controller construction, trace generation) stays outside the
    measured interval and every repeat starts cold-state-identical.
    """

    name: str
    ops: int
    make: Callable[[], Callable[[], None]]


def _controller_case(name: str, trace: Any, accesses: int) -> BenchCase:
    def make() -> Callable[[], None]:
        from repro.core.registry import build_controller
        from repro.nvm.memory import NvmMainMemory
        from repro.system.simulator import simulate

        def run() -> None:
            simulate(build_controller(name, NvmMainMemory()), trace)

        return run

    return BenchCase(name=f"controller.{name}", ops=accesses, make=make)


def _hash_case(name: str, fn: Callable[[bytes], Any], lines: list[bytes]) -> BenchCase:
    def make() -> Callable[[], None]:
        def run() -> None:
            for line in lines:
                fn(line)

        return run

    return BenchCase(name=f"hash.{name}", ops=len(lines), make=make)


def _hash_burst_case(
    name: str, fn: Callable[[list[bytes]], Any], lines: list[bytes]
) -> BenchCase:
    """Time a batch hash kernel over the whole burst in one call.

    The case name and ops count match the scalar variant it replaces, so
    per-op history stays comparable across the scalar->batched transition.
    """

    def make() -> Callable[[], None]:
        def run() -> None:
            fn(lines)

        return run

    return BenchCase(name=f"hash.{name}", ops=len(lines), make=make)


def _metadata_cache_case(accesses: int, seed: int) -> BenchCase:
    def make() -> Callable[[], None]:
        from repro.core.metadata_cache import MetadataCache

        rng = random.Random(seed)
        pattern = [rng.randrange(0, 4096) for _ in range(accesses)]

        def run() -> None:
            cache = MetadataCache("bench", 256, 8)
            for index in pattern:
                cache.access(index, write=index % 3 == 0)

        return run

    return BenchCase(name="metadata.cache", ops=accesses, make=make)


def _trace_case(app: str, accesses: int, seed: int) -> BenchCase:
    """Time one cold trace synthesis.

    Calls :func:`~repro.workloads.generator.generate_trace` directly:
    ``trace_for`` is memoized, so every repeat after the first would time a
    cache hit.
    """

    def make() -> Callable[[], None]:
        from repro.workloads.generator import generate_trace
        from repro.workloads.profiles import profile_by_name

        profile = profile_by_name(app)

        def run() -> None:
            generate_trace(profile, accesses, seed=seed)

        return run

    return BenchCase(name=f"workloads.trace.{app}", ops=accesses, make=make)


def default_suite(
    *,
    accesses: int = 1200,
    seed: int = 1,
    app: str = "lbm",
    hash_lines: int = 48,
    controllers: list[str] | None = None,
) -> list[BenchCase]:
    """The standard case list: controllers × hash circuits × metadata cache
    × trace synthesis."""
    from repro.core.registry import available_controllers
    from repro.hashes import crc32, line_fingerprint
    from repro.hashes.vector import md5_many, sha1_many
    from repro.runner.jobs import trace_for

    trace = trace_for(app, accesses, seed)
    rng = random.Random(seed)
    lines = [rng.randbytes(256) for _ in range(hash_lines)]

    names = controllers if controllers is not None else sorted(available_controllers())
    cases = [_controller_case(name, trace, accesses) for name in names]
    cases.extend(
        [
            _hash_case("crc32", crc32, lines),
            _hash_burst_case("sha1", sha1_many, lines),
            _hash_burst_case("md5", md5_many, lines),
            _hash_case("crc32-stdlib", line_fingerprint, lines),
        ]
    )
    cases.append(_metadata_cache_case(accesses=4 * accesses, seed=seed))
    # lbm's writes are mostly duplicates; bzip2's are mostly fresh content.
    cases.extend(_trace_case(name, accesses, seed) for name in ("lbm", "bzip2"))
    return cases


def collect_stage_breakdown(
    *,
    accesses: int = 1200,
    seed: int = 1,
    app: str = "lbm",
    controllers: list[str] | None = None,
) -> dict[str, dict[str, Any]]:
    """Per-controller stage totals at bench scale (summary mode).

    One simulation per controller with a
    :class:`~repro.obs.stages.StageAccumulator` attached — the fused
    kernels stay active, and the totals are functions of the simulated
    clock only, so this section is **deterministic** across hosts (unlike
    the wall-clock ``results``).  Keys match the ``controller.<name>``
    case names so :func:`compare_records` can attribute a case regression
    to the stage whose simulated cost drifted.
    """
    from repro.core.registry import available_controllers, build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.obs.stages import StageAccumulator
    from repro.runner.jobs import trace_for
    from repro.system.simulator import simulate

    trace = trace_for(app, accesses, seed)
    names = controllers if controllers is not None else sorted(available_controllers())
    breakdown: dict[str, dict[str, Any]] = {}
    for name in names:
        accumulator = StageAccumulator()
        controller = build_controller(name, NvmMainMemory(), stages=accumulator)
        simulate(controller, trace)
        stages: dict[str, Any] = {
            stage: {"count": histogram.count, "total_ns": histogram.total}
            for stage, histogram in accumulator.histograms().items()
        }
        breakdown[f"controller.{name}"] = {
            "kernel": f"{type(controller).__name__}.service_batch",
            "stages": stages,
        }
    return breakdown


def run_suite(cases: list[BenchCase], *, repeats: int = 3) -> dict[str, dict[str, Any]]:
    """Best-of-``repeats`` wall time per case, interleaved round-robin.

    Returns ``{case name: {"best_s", "ops", "per_op_ns"}}``.
    """
    if repeats < 1:
        raise ValueError(f"need at least one repeat, got {repeats}")
    best: dict[str, float] = {case.name: float("inf") for case in cases}
    for case in cases:  # warm imports and lazy tables outside the measurement
        case.make()()
    for _ in range(repeats):
        for case in cases:
            thunk = case.make()
            started = time.perf_counter()
            thunk()
            elapsed = time.perf_counter() - started
            if elapsed < best[case.name]:
                best[case.name] = elapsed
    return {
        case.name: {
            "best_s": best[case.name],
            "ops": case.ops,
            "per_op_ns": best[case.name] / case.ops * 1e9 if case.ops else 0.0,
        }
        for case in cases
    }


def build_record(
    results: dict[str, dict[str, Any]],
    *,
    scale: dict[str, Any],
    stages: dict[str, dict[str, Any]] | None = None,
) -> dict[str, Any]:
    """Assemble a schema-valid bench record around measured results.

    ``stages`` is the optional deterministic per-controller breakdown
    from :func:`collect_stage_breakdown`.
    """
    record = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "created_unix_s": time.time(),
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "scale": dict(scale),
        "results": {name: dict(entry) for name, entry in sorted(results.items())},
    }
    if stages is not None:
        record["stages"] = {name: dict(entry) for name, entry in sorted(stages.items())}
    return record


def validate_record(payload: Any) -> list[str]:
    """Schema problems of one bench record (empty list = valid)."""
    problems: list[str] = []
    if not isinstance(payload, dict):
        return [f"bench record must be a JSON object, got {type(payload).__name__}"]
    if payload.get("schema") not in ACCEPTED_BENCH_SCHEMA_VERSIONS:
        problems.append(
            f"schema must be one of {ACCEPTED_BENCH_SCHEMA_VERSIONS}, "
            f"got {payload.get('schema')!r}"
        )
    if payload.get("kind") != BENCH_KIND:
        problems.append(f"kind must be {BENCH_KIND!r}, got {payload.get('kind')!r}")
    for key in ("python", "platform"):
        if not isinstance(payload.get(key), str):
            problems.append(f"field {key!r} must be a string")
    if not isinstance(payload.get("created_unix_s"), (int, float)):
        problems.append("field 'created_unix_s' must be a number")
    if payload.get("git_sha") is not None and not isinstance(payload.get("git_sha"), str):
        problems.append("field 'git_sha' must be a string or null")
    if not isinstance(payload.get("scale"), dict):
        problems.append("field 'scale' must be an object")
    stages = payload.get("stages")
    if stages is not None:
        if not isinstance(stages, dict):
            problems.append("field 'stages' must be an object when present")
        else:
            for case, entry in stages.items():
                if not isinstance(entry, dict) or not isinstance(entry.get("stages"), dict):
                    problems.append(f"stages[{case!r}] must be an object with 'stages'")
                    continue
                if not isinstance(entry.get("kernel"), str):
                    problems.append(f"stages[{case!r}].kernel must be a string")
                for stage, fields in entry["stages"].items():
                    if not isinstance(fields, dict):
                        problems.append(f"stages[{case!r}].stages[{stage!r}] must be an object")
                        continue
                    if not isinstance(fields.get("count"), int):
                        problems.append(f"stages[{case!r}].stages[{stage!r}].count must be an int")
                    if not isinstance(fields.get("total_ns"), (int, float)):
                        problems.append(
                            f"stages[{case!r}].stages[{stage!r}].total_ns must be a number"
                        )
    results = payload.get("results")
    if not isinstance(results, dict) or not results:
        problems.append("field 'results' must be a non-empty object")
        return problems
    for name, entry in results.items():
        if not isinstance(entry, dict):
            problems.append(f"results[{name!r}] must be an object")
            continue
        for key in ("best_s", "per_op_ns"):
            if not isinstance(entry.get(key), (int, float)):
                problems.append(f"results[{name!r}].{key} must be a number")
        if not isinstance(entry.get("ops"), int):
            problems.append(f"results[{name!r}].ops must be an integer")
    return problems


def record_filename(payload: dict[str, Any]) -> str:
    """``BENCH_<gitsha12>.json`` (``BENCH_nogit.json`` outside a checkout)."""
    sha = payload.get("git_sha")
    return f"BENCH_{sha[:12] if sha else 'nogit'}.json"


def write_record(payload: dict[str, Any], out_dir: str | Path) -> Path:
    """Write one bench record into ``out_dir``; returns the path."""
    target = Path(out_dir) / record_filename(payload)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return target


def load_record(path: str | Path) -> dict[str, Any]:
    """Read one bench record; raises ``ValueError`` when invalid."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    problems = validate_record(payload)
    if problems:
        raise ValueError(f"bench record {path} failed validation: " + "; ".join(problems))
    return payload


def discover_anchors(directory: str | Path) -> list[Path]:
    """Every committed ``BENCH_*.json`` anchor in ``directory``, oldest first.

    Ordering is by each record's ``created_unix_s`` (filename as the
    tiebreak), not by filename — shas don't sort chronologically.  An
    invalid record raises rather than being skipped: a corrupt committed
    anchor should fail the gate loudly, not silently shrink the baseline.
    """
    paths = sorted(Path(directory).glob("BENCH_*.json"))
    records = [(load_record(path), path) for path in paths]
    records.sort(key=lambda pair: (float(pair[0].get("created_unix_s", 0.0)), pair[1].name))
    return [path for _, path in records]


def composite_baseline(records: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold every anchor into one gate baseline: per-case best-ever time.

    ``repro bench --gate`` compares against *all* committed anchors, not
    just the newest — a regression vs any point in history is a
    regression.  Min-of-anchors per case is the natural composite under
    the suite's min-of-repeats sampling (noise only ever inflates, so the
    historical best is the trustworthy bound).  Provenance fields and the
    deterministic ``stages`` section come from the newest anchor, since
    stage totals are functions of the current simulator model, not of
    which anchor happened to post the best wall time.
    """
    if not records:
        raise ValueError("need at least one bench anchor to build a baseline")
    ordered = sorted(records, key=lambda record: float(record.get("created_unix_s", 0.0)))
    results: dict[str, dict[str, Any]] = {}
    for record in ordered:
        for name, entry in record.get("results", {}).items():
            best = results.get(name)
            if best is None or float(entry["best_s"]) < float(best["best_s"]):
                # Stamp which committed anchor set this case's bar, so a
                # gate failure names the run to compare against, not just
                # the case.
                winning = dict(entry)
                sha = record.get("git_sha")
                if isinstance(sha, str) and sha:
                    winning["anchor_git_sha"] = sha
                results[name] = winning
    newest = ordered[-1]
    baseline = {
        "schema": BENCH_SCHEMA_VERSION,
        "kind": BENCH_KIND,
        "created_unix_s": newest.get("created_unix_s"),
        "git_sha": newest.get("git_sha"),
        "python": newest.get("python"),
        "platform": newest.get("platform"),
        "scale": dict(newest.get("scale", {})),
        "results": {name: results[name] for name in sorted(results)},
    }
    if isinstance(newest.get("stages"), dict):
        baseline["stages"] = newest["stages"]
    return baseline


def format_case_delta(entry: dict[str, Any]) -> str:
    """``name: 1.00ms -> 1.50ms (+50.0%)`` for one compared case."""
    return (
        f"{entry['name']}: {entry['baseline_s'] * 1000:.2f}ms -> "
        f"{entry['current_s'] * 1000:.2f}ms ({entry['change']:+.1%})"
    )


def _anchor_suffix(entry: dict[str, Any]) -> str:
    """`` [anchor <sha>]`` when the composite baseline recorded provenance."""
    sha = entry.get("anchor_git_sha")
    if isinstance(sha, str) and sha:
        return f" [anchor {sha[:12]}]"
    return ""


@dataclass(frozen=True)
class BenchComparison:
    """Outcome of gating a current bench record against a baseline."""

    threshold: float
    regressions: list[dict[str, Any]] = field(default_factory=list)
    improvements: list[dict[str, Any]] = field(default_factory=list)
    appeared: list[str] = field(default_factory=list)
    vanished: list[str] = field(default_factory=list)
    within: int = 0
    #: Informational per-regression attribution from the stage-breakdown
    #: sections (never gates): which kernel/stage's simulated cost moved,
    #: or that the sim totals are unchanged (a host-side slowdown).
    stage_notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no case regressed beyond the threshold."""
        return not self.regressions

    def render(self) -> str:
        """Human-readable verdict, one line per notable case."""
        lines = [
            f"bench gate: threshold {self.threshold:+.0%}, {self.within} case(s) within, "
            f"{len(self.regressions)} regressed, {len(self.improvements)} improved"
        ]
        for entry in self.regressions:
            lines.append(f"  REGRESSED {format_case_delta(entry)}{_anchor_suffix(entry)}")
        for entry in self.improvements:
            lines.append(f"  improved  {format_case_delta(entry)}{_anchor_suffix(entry)}")
        if self.appeared:
            lines.append(f"  appeared (no baseline): {', '.join(self.appeared)}")
        if self.vanished:
            lines.append(f"  vanished (baseline only): {', '.join(self.vanished)}")
        for note in self.stage_notes:
            lines.append(f"  stage: {note}")
        return "\n".join(lines)


def compare_records(
    current: dict[str, Any],
    baseline: dict[str, Any],
    *,
    threshold: float = 0.30,
    absolute_floor_s: float = ABSOLUTE_FLOOR_S,
) -> BenchComparison:
    """Gate ``current`` against ``baseline`` with noise-aware thresholds.

    Each case present on both sides gets the drift engine's verdict
    (:func:`repro.obs.drift.verdict`): it regresses when its best time
    grew by more than ``threshold`` relatively **and** by more than
    ``absolute_floor_s`` absolutely, or became NaN.  Min-of-repeats
    sampling means noise can only inflate ``current``, so a pass is
    trustworthy while a fail may warrant a re-run on a quieter
    machine.  Cases present on only one side are reported separately,
    never as ±inf regressions.

    When both records carry a ``stages`` section (schema 2), every
    regressed controller case gets an informational note naming the
    kernel stage whose simulated total moved the most — or stating that
    the simulated totals are unchanged, which pins the slowdown on the
    host-side code rather than the modelled workload.
    """
    current_results = current.get("results", {})
    baseline_results = baseline.get("results", {})
    vanished, appeared, common = match(baseline_results, current_results)
    verdicts: dict[str, list[dict[str, Any]]] = {"regressed": [], "improved": [], "within": []}
    for name in common:
        base = float(baseline_results[name]["best_s"])
        cur = float(current_results[name]["best_s"])
        change = relative_change(base, cur)
        entry = {"name": name, "baseline_s": base, "current_s": cur, "change": change}
        anchor_sha = baseline_results[name].get("anchor_git_sha")
        if isinstance(anchor_sha, str) and anchor_sha:
            entry["anchor_git_sha"] = anchor_sha
        verdicts[verdict(base, cur, threshold=threshold, floor=absolute_floor_s)].append(entry)
    regressions = verdicts["regressed"]
    stage_notes = [
        note
        for entry in regressions
        if (
            note := _attribute_stage_drift(
                entry["name"], current.get("stages"), baseline.get("stages")
            )
        )
        is not None
    ]
    return BenchComparison(
        threshold=threshold,
        regressions=regressions,
        improvements=verdicts["improved"],
        appeared=appeared,
        vanished=vanished,
        within=len(verdicts["within"]),
        stage_notes=stage_notes,
    )


def _attribute_stage_drift(
    case: str, current_stages: Any, baseline_stages: Any
) -> str | None:
    """Name the stage whose simulated total moved most for ``case``.

    Returns ``None`` when either record lacks a breakdown for the case
    (v1 baselines, non-controller cases), so the note list degrades
    gracefully against old anchors.
    """
    if not isinstance(current_stages, dict) or not isinstance(baseline_stages, dict):
        return None
    current_entry = current_stages.get(case)
    baseline_entry = baseline_stages.get(case)
    if not isinstance(current_entry, dict) or not isinstance(baseline_entry, dict):
        return None
    kernel = current_entry.get("kernel", case)
    current_totals, baseline_totals = (
        {
            stage: float(fields.get("total_ns", 0.0))
            for stage, fields in entry.get("stages", {}).items()
        }
        for entry in (current_entry, baseline_entry)
    )

    def moved(stage: str) -> float:
        return abs(current_totals.get(stage, 0.0) - baseline_totals.get(stage, 0.0))

    stages = sorted(current_totals.keys() | baseline_totals.keys())
    worst_stage = max(stages, key=moved, default=None)
    if worst_stage is None or moved(worst_stage) <= 0:
        return (
            f"{case}: simulated stage totals unchanged in {kernel} — "
            "the slowdown is host-side (code), not modelled work"
        )
    return (
        f"{case}: largest simulated drift in {kernel} stage {worst_stage!r} "
        f"({baseline_totals.get(worst_stage, 0.0):.0f} -> "
        f"{current_totals.get(worst_stage, 0.0):.0f} sim ns)"
    )
