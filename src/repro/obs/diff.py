"""Run-to-run diffing: what changed between two ``repro`` runs?

``python -m repro diff <manifest-a> <manifest-b>`` compares two run
manifests (and, optionally, their JSONL trace files and exported figure
JSONs) and separates **deterministic** divergence from wall-clock noise:

- *counters* in the metrics section (simulations executed, jobs per
  kind) are products of the seeded simulation — any mismatch is real
  drift;
- the *timeline* (per-window counters over the simulated clock),
  *faults* (crash-recovery verdicts from seeded fault plans, see
  :mod:`repro.faults`) and *stages* (summary-mode per-stage totals from
  ``python -m repro profile``) sections are pure products of the seed,
  so they compare entry by entry and field by field, exactly;
- per-stage latency percentiles extracted from JSONL sinks use the
  **sim** clock only, so p50/p95/p99 deltas are code-behaviour changes,
  not scheduler luck;
- gauges, histograms and elapsed/RSS numbers are wall-clock and reported
  as informational deltas, never as drift;
- figure tables drift through :func:`repro.obs.drift.compare_tables`.

Every comparison applies the rules of :mod:`repro.obs.drift`.  Two
manifests of the same figure at the same git SHA must diff clean —
that property is the CI acceptance gate for this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.obs.chrome import read_trace_jsonl
from repro.obs.drift import (
    Match,
    RegressionReport,
    compare_tables,
    differing_fields,
    drifted,
    load_table,
    match,
)
from repro.obs.manifest import summarize_manifest
from repro.obs.trace import percentile

#: Counters measuring how much work the *runner* performed, which depends
#: on cache warmth (a warm run executes zero jobs), not on what the
#: simulation computed.  They compare informationally, so two runs of the
#: same figure at the same SHA diff clean whatever the cache state.
#: ``batch.fallback.*`` counts batches the kernel merged from several
#: streams (a property of how the trace was sliced, not of the simulated
#: results — every slicing is equivalence-tested identical).
#: ``events.*`` counts live-telemetry records emitted/dropped, a property
#: of whether an event sink was attached and how healthy it was.
_ENVIRONMENT_COUNTER_PREFIXES = ("jobs.", "simulations", "batch.fallback.", "events.")


def _environment_counter(name: str) -> bool:
    return name.startswith(_ENVIRONMENT_COUNTER_PREFIXES)


@dataclass(frozen=True)
class MetricDelta:
    """One metric present in both runs with differing values."""

    name: str
    kind: str
    a: float
    b: float

    def __str__(self) -> str:
        return f"{self.name} ({self.kind}): {self.a:g} -> {self.b:g}"


@dataclass
class ManifestDiff:
    """Structured outcome of diffing two manifests."""

    context: list[str] = field(default_factory=list)
    counter_drifts: list[MetricDelta] = field(default_factory=list)
    appeared_counters: list[str] = field(default_factory=list)
    vanished_counters: list[str] = field(default_factory=list)
    counters_compared: int = 0
    info_deltas: list[MetricDelta] = field(default_factory=list)
    timeline_drifts: list[str] = field(default_factory=list)
    timeline_windows_compared: int = 0
    faults_drifts: list[str] = field(default_factory=list)
    faults_scenarios_compared: int = 0
    stages_drifts: list[str] = field(default_factory=list)
    stages_compared: int = 0

    @property
    def deterministic_drift(self) -> bool:
        """Whether any seeded-simulation product diverged."""
        return bool(
            self.counter_drifts
            or self.appeared_counters
            or self.vanished_counters
            or self.timeline_drifts
            or self.faults_drifts
            or self.stages_drifts
        )

    def render(self) -> str:
        """Human-readable report, context first, drift before noise."""
        lines = list(self.context)
        if self.deterministic_drift:
            lines.append(
                f"DRIFT: {len(self.counter_drifts)} counter(s) moved, "
                f"{len(self.appeared_counters)} appeared, "
                f"{len(self.vanished_counters)} vanished, "
                f"{len(self.timeline_drifts)} timeline divergence(s), "
                f"{len(self.faults_drifts)} fault-scenario divergence(s), "
                f"{len(self.stages_drifts)} stage divergence(s)"
            )
            lines.extend(f"  {delta}" for delta in self.counter_drifts)
            lines.extend(f"  appeared: {name}" for name in self.appeared_counters)
            lines.extend(f"  vanished: {name}" for name in self.vanished_counters)
            lines.extend(f"  timeline: {note}" for note in self.timeline_drifts)
            lines.extend(f"  faults: {note}" for note in self.faults_drifts)
            lines.extend(f"  stages: {note}" for note in self.stages_drifts)
        else:
            lines.append(
                f"deterministic state identical "
                f"({self.counters_compared} counters, "
                f"{self.timeline_windows_compared} timeline windows, "
                f"{self.faults_scenarios_compared} fault scenarios, "
                f"{self.stages_compared} stages)"
            )
        if self.info_deltas:
            lines.append(f"wall-clock deltas (informational, {len(self.info_deltas)}):")
            lines.extend(f"  {delta}" for delta in self.info_deltas[:10])
            if len(self.info_deltas) > 10:
                lines.append(f"  ... and {len(self.info_deltas) - 10} more")
        return "\n".join(lines)


def _metric_value(entry: dict[str, Any]) -> float:
    if entry.get("kind") == "histogram":
        return float(entry.get("total", 0.0))
    return float(entry.get("value", 0.0))


def diff_manifests(a: dict[str, Any], b: dict[str, Any]) -> ManifestDiff:
    """Compare two run manifests (see the module docstring for semantics)."""
    diff = ManifestDiff()
    summary_a = summarize_manifest(a)
    summary_b = summarize_manifest(b)

    for label, key in (("git sha", "git_sha"), ("figures", "figures"),
                       ("settings", "settings")):
        va, vb = summary_a.get(key), summary_b.get(key)
        if va != vb:
            diff.context.append(f"context: {label} differ ({va!r} vs {vb!r})")
    for problems, which in ((summary_a["problems"], "a"), (summary_b["problems"], "b")):
        if problems:
            diff.context.append(
                f"context: manifest {which} is INVALID ({len(problems)} problem(s))"
            )

    metrics_a = a.get("metrics", {}) or {}
    metrics_b = b.get("metrics", {}) or {}
    keys = match(metrics_a, metrics_b)
    for name in keys.only_a + keys.only_b:
        vanished = name in metrics_a
        present = metrics_a[name] if vanished else metrics_b[name]
        if present.get("kind") == "counter" and not _environment_counter(name):
            (diff.vanished_counters if vanished else diff.appeared_counters).append(name)
        else:
            value = _metric_value(present)
            va, vb = (value, 0.0) if vanished else (0.0, value)
            diff.info_deltas.append(MetricDelta(name, str(present.get("kind")), va, vb))
    for name in keys.both:
        kind = metrics_a[name].get("kind")
        va, vb = _metric_value(metrics_a[name]), _metric_value(metrics_b[name])
        if kind == "counter" and not _environment_counter(name):
            diff.counters_compared += 1
            if drifted(va, vb):
                diff.counter_drifts.append(MetricDelta(name, "counter", va, vb))
        elif drifted(va, vb):
            diff.info_deltas.append(MetricDelta(name, str(kind), va, vb))
    diff.info_deltas.sort(key=lambda delta: delta.name)

    diff.timeline_drifts, diff.timeline_windows_compared = diff_timelines(
        a.get("timeline"), b.get("timeline")
    )
    diff.faults_drifts, diff.faults_scenarios_compared = diff_faults(
        a.get("faults"), b.get("faults")
    )
    diff.stages_drifts, diff.stages_compared = diff_stage_sections(
        a.get("stages"), b.get("stages")
    )

    for which, summary in (("a", summary_a), ("b", summary_b)):
        elapsed = summary.get("elapsed_s")
        if isinstance(elapsed, (int, float)):
            diff.context.append(f"context: run {which} took {elapsed:.1f}s wall")
    return diff


def _diff_section(
    a: dict[str, Any] | None,
    b: dict[str, Any] | None,
    section: str,
    noun: str,
    header: Callable[[dict[str, Any], dict[str, Any]], str | None],
    entries: Callable[[dict[str, Any]], dict[Any, dict[str, Any]]],
    *,
    label: Callable[[Any], str] = str,
    sort_key: Callable[[Any], Any] | None = None,
    one_sided: Callable[[Match], list[str]] | None = None,
) -> tuple[list[str], int]:
    """Deterministic divergences between two keyed manifest sections.

    Both-absent compares nothing; a one-sided section, or a ``header``
    mismatch, short-circuits with a single note.  Entries are matched by
    key and compared field by field: every recorded value is a product of
    the seeded simulation, so any mismatch is drift.  Returns ``(notes,
    entries compared)``.
    """
    if a is None and b is None:
        return [], 0
    if a is None or b is None:
        return [f"{section} present only in manifest {'b' if a is None else 'a'}"], 0
    problem = header(a, b)
    if problem is not None:
        return [problem], 0
    entries_a, entries_b = entries(a), entries(b)
    keys = match(entries_a, entries_b, lambda found: sorted(found, key=sort_key or label))
    if one_sided is None:
        notes = keys.one_sided(noun + " only in {side}: {key}", label)
    else:
        notes = one_sided(keys)
    for key in keys.both:
        fields = differing_fields(entries_a[key], entries_b[key])
        if fields:
            notes.append(f"{noun} {label(key)} diverges in {', '.join(fields)}")
    return notes, len(keys.both)


def _numeric_header(name: str, what: str) -> Callable[[dict, dict], str | None]:
    def header(a: dict[str, Any], b: dict[str, Any]) -> str | None:
        value_a, value_b = float(a.get(name, 0.0)), float(b.get(name, 0.0))
        if drifted(value_a, value_b):
            return f"{what} differ ({value_a:g} vs {value_b:g} ns)"
        return None

    return header


def diff_timelines(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Timeline divergences per window: ``(notes, windows compared)``."""
    return _diff_section(
        a, b, "timeline", "window", _numeric_header("window_ns", "window widths"),
        lambda section: section.get("windows", {}) or {},
        sort_key=int,
        one_sided=lambda keys: [
            f"windows only in {side}: {', '.join(only[:8])}"
            for side, only in (("a", keys.only_a), ("b", keys.only_b))
            if only
        ],
    )


_SCENARIO_KEY = ("workload", "controller", "policy", "crash_access")


def diff_faults(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Fault-campaign divergences: ``(notes, scenarios compared)``.

    Scenarios are matched on (workload, controller, policy, crash point).
    """
    return _diff_section(
        a, b, "faults section", "scenario",
        _numeric_header("interval_ns", "writeback intervals"),
        lambda section: {
            tuple(scenario.get(name) for name in _SCENARIO_KEY): scenario
            for scenario in section.get("scenarios", []) or []
            if isinstance(scenario, dict)
        },
        label=lambda key: "/".join(str(part) for part in key),
    )


def diff_stage_sections(
    a: dict[str, Any] | None, b: dict[str, Any] | None
) -> tuple[list[str], int]:
    """Summary-mode stage divergences: ``(notes, stages compared)``.

    Stage totals are functions of the simulated clock only (the
    reconciliation suite pins them to the trace spans), so any
    count/total/min/max/bucket mismatch is drift.
    """
    return _diff_section(
        a, b, "stages section", "stage",
        lambda x, y: (
            None if x.get("bounds") == y.get("bounds") else "stage histogram bounds differ"
        ),
        lambda section: section.get("stages", {}) or {},
    )


# ---------------------------------------------------------------------------
# Per-stage latency percentiles from JSONL trace sinks
# ---------------------------------------------------------------------------


def stage_percentiles(path: str | Path) -> dict[str, dict[str, float]]:
    """Sim-clock per-stage latency summary of one JSONL trace file.

    Returns ``{stage: {count, mean, p50, p95, p99, max}}`` over every
    ``clock == "sim"`` span; malformed lines raise (a truncated trace is
    an input error, not data — see ``JsonlSink``'s atexit flush).
    """
    stages: dict[str, list[float]] = {}
    for record in read_trace_jsonl(path):
        try:
            if record.get("type") == "span" and record.get("clock") == "sim":
                stages.setdefault(record["name"], []).append(float(record["dur_ns"]))
        except (AttributeError, KeyError, TypeError, ValueError) as error:
            raise ValueError(f"{path}: malformed trace record {record!r}") from error
    summary: dict[str, dict[str, float]] = {}
    for name, durations in stages.items():
        durations.sort()
        summary[name] = {
            "count": float(len(durations)),
            "mean": sum(durations) / len(durations),
            "p50": percentile(durations, 50),
            "p95": percentile(durations, 95),
            "p99": percentile(durations, 99),
            "max": durations[-1],
        }
    return summary


def diff_stages(
    a: dict[str, dict[str, float]],
    b: dict[str, dict[str, float]],
    *,
    tolerance: float = 0.0,
) -> list[str]:
    """Per-stage percentile deltas beyond ``tolerance`` (sim clock ⇒ drift)."""
    keys = match(a, b)
    notes = keys.one_sided("stage {key} only in {side}")
    for name in keys.both:
        for quantile in ("count", "p50", "p95", "p99"):
            va, vb = a[name][quantile], b[name][quantile]
            if drifted(va, vb, rel=tolerance, floor=1e-9):
                notes.append(f"stage {name}.{quantile}: {va:g} -> {vb:g}")
    return notes


# ---------------------------------------------------------------------------
# Figure-table drift between two exported-JSON directories
# ---------------------------------------------------------------------------


def diff_figure_dirs(
    dir_a: str | Path, dir_b: str | Path, *, tolerance: float = 0.05
) -> tuple[dict[str, RegressionReport], list[str]]:
    """Compare matching ``*.json`` figure exports of two directories.

    Returns ``(reports by figure name, notes about unmatched files)``;
    raises ``ValueError`` on a malformed export.
    """
    files_a = {path.name: path for path in Path(dir_a).glob("*.json")}
    files_b = {path.name: path for path in Path(dir_b).glob("*.json")}
    keys = match(files_a, files_b)
    reports = {
        name: compare_tables(
            load_table(files_a[name]), load_table(files_b[name]), relative_tolerance=tolerance
        )
        for name in keys.both
    }
    return reports, keys.one_sided("figure {key} only in {side}")
