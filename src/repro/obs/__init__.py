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
  feed with columnar flushes, far cheaper than full tracing, and the
  fold of a trace's spans into the same accumulator behind
  ``python -m repro trace --flamegraph/--manifest``.
"""

from __future__ import annotations

from repro._lazy import lazy_exports

#: Public name -> defining submodule.  Exports load on first use (PEP 562),
#: so importing one observability module never compiles the manifest,
#: bench, diff and chrome-export machinery a run does not use.
_EXPORTS = {
    "MANIFEST_KIND": "manifest",
    "MANIFEST_SCHEMA_VERSION": "manifest",
    "ManifestError": "manifest",
    "build_manifest": "manifest",
    "git_sha": "manifest",
    "load_manifest": "manifest",
    "peak_rss_kb": "manifest",
    "summarize_manifest": "manifest",
    "validate_manifest": "manifest",
    "write_manifest": "manifest",
    "ACCEPTED_BENCH_SCHEMA_VERSIONS": "bench",
    "BENCH_KIND": "bench",
    "BENCH_SCHEMA_VERSION": "bench",
    "BenchCase": "bench",
    "BenchComparison": "bench",
    "collect_stage_breakdown": "bench",
    "compare_records": "bench",
    "default_suite": "bench",
    "load_record": "bench",
    "run_suite": "bench",
    "write_record": "bench",
    "ManifestDiff": "diff",
    "diff_figure_dirs": "diff",
    "diff_manifests": "diff",
    "diff_stage_sections": "diff",
    "diff_stages": "diff",
    "diff_timelines": "diff",
    "stage_percentiles": "diff",
    "NULL_STAGES": "stages",
    "STAGES_SCHEMA_VERSION": "stages",
    "NullStageAccumulator": "stages",
    "StageAccumulator": "stages",
    "StagesLike": "stages",
    "LATENCY_BOUNDS_NS": "metrics",
    "SECONDS_BOUNDS": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricsRegistry": "metrics",
    "registry": "metrics",
    "reset_registry": "metrics",
    "JsonlSink": "sinks",
    "SinkClosedError": "sinks",
    "stderr_line": "sinks",
    "stdout_line": "sinks",
    "NULL_TIMELINE": "timeline",
    "NullTimeline": "timeline",
    "TimelineCollector": "timeline",
    "TimelineLike": "timeline",
    "render_timeline": "timeline",
    "timeline_csv": "timeline",
    "NULL_TRACER": "trace",
    "NullTracer": "trace",
    "Tracer": "trace",
    "TracerLike": "trace",
    "percentile": "trace",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
