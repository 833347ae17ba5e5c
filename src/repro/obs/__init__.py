"""repro.obs: tracing, metrics, timelines, manifests, diffing, benching.

The observability layer for the simulator stack:

- :mod:`repro.obs.trace` — a zero-dependency span/event bus with a
  no-op :data:`NULL_TRACER` so instrumented hot paths cost one attribute
  check when tracing is off;
- :mod:`repro.obs.timeline` — windowed in-run time-series over the
  simulated clock (dedup ratio, write reduction, cache hits, bank waits,
  bit flips per window) with the same null-object discipline
  (:data:`NULL_TIMELINE`) and the same lossless merge contract as the
  metrics registry;
- :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and fixed-bucket histograms whose snapshots merge losslessly
  across worker processes;
- :mod:`repro.obs.manifest` — schema-versioned ``manifest.json`` records
  written by every ``python -m repro run`` invocation;
- :mod:`repro.obs.drift` — the one set of drift rules (keyed match,
  tolerance, directional verdict) every comparison below applies, plus
  figure-table regression (``python -m repro regress``);
- :mod:`repro.obs.diff` — run-to-run comparison separating deterministic
  simulation drift from wall-clock noise (``python -m repro diff``);
- :mod:`repro.obs.bench` — the continuous microbenchmark harness and its
  ``BENCH_<gitsha>.json`` regression gate (``python -m repro bench``);
- :mod:`repro.obs.stages` — summary-mode per-stage latency accounting
  (:class:`~repro.obs.stages.StageAccumulator`) that the batch kernels
  feed with columnar flushes, far cheaper than full tracing;
- :mod:`repro.obs.profile` — the deterministic batch profiler behind
  ``python -m repro profile`` (stage tables, collapsed-stack
  flamegraphs, per-batch wall timing kept out of sim state).
"""

from repro.obs.bench import (
    ACCEPTED_BENCH_SCHEMA_VERSIONS,
    BENCH_KIND,
    BENCH_SCHEMA_VERSION,
    BenchCase,
    BenchComparison,
    collect_stage_breakdown,
    compare_records,
    default_suite,
    load_record,
    run_suite,
    write_record,
)
from repro.obs.diff import (
    ManifestDiff,
    diff_figure_dirs,
    diff_manifests,
    diff_stage_sections,
    diff_stages,
    diff_timelines,
    stage_percentiles,
)
from repro.obs.profile import (
    PROFILE_SCHEMA_VERSION,
    BatchProfiler,
    render_stage_table,
    render_wall_summary,
)
from repro.obs.stages import (
    NULL_STAGES,
    STAGES_SCHEMA_VERSION,
    NullStageAccumulator,
    StageAccumulator,
    StagesLike,
)
from repro.obs.manifest import (
    MANIFEST_KIND,
    MANIFEST_SCHEMA_VERSION,
    ManifestError,
    build_manifest,
    git_sha,
    load_manifest,
    peak_rss_kb,
    summarize_manifest,
    validate_manifest,
    write_manifest,
)
from repro.obs.metrics import (
    LATENCY_BOUNDS_NS,
    SECONDS_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    registry,
    reset_registry,
)
from repro.obs.sinks import JsonlSink, SinkClosedError, stderr_line, stdout_line
from repro.obs.timeline import (
    NULL_TIMELINE,
    NullTimeline,
    TimelineCollector,
    TimelineLike,
    render_timeline,
    timeline_csv,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, TracerLike, percentile

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA_VERSION",
    "ManifestError",
    "build_manifest",
    "git_sha",
    "load_manifest",
    "peak_rss_kb",
    "summarize_manifest",
    "validate_manifest",
    "write_manifest",
    "ACCEPTED_BENCH_SCHEMA_VERSIONS",
    "BENCH_KIND",
    "BENCH_SCHEMA_VERSION",
    "BenchCase",
    "BenchComparison",
    "collect_stage_breakdown",
    "compare_records",
    "default_suite",
    "load_record",
    "run_suite",
    "write_record",
    "ManifestDiff",
    "diff_figure_dirs",
    "diff_manifests",
    "diff_stage_sections",
    "diff_stages",
    "diff_timelines",
    "stage_percentiles",
    "PROFILE_SCHEMA_VERSION",
    "BatchProfiler",
    "render_stage_table",
    "render_wall_summary",
    "NULL_STAGES",
    "STAGES_SCHEMA_VERSION",
    "NullStageAccumulator",
    "StageAccumulator",
    "StagesLike",
    "LATENCY_BOUNDS_NS",
    "SECONDS_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_registry",
    "JsonlSink",
    "SinkClosedError",
    "stderr_line",
    "stdout_line",
    "NULL_TIMELINE",
    "NullTimeline",
    "TimelineCollector",
    "TimelineLike",
    "render_timeline",
    "timeline_csv",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
    "TracerLike",
    "percentile",
]
