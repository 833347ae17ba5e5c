"""Batch-native per-stage latency accounting for the fused kernels.

Full tracing (:mod:`repro.obs.trace`) records one span per request per
stage, which costs an allocation per span.  This module is the
*summary* mode: a :class:`StageAccumulator` holds one fixed-bucket
:class:`~repro.obs.metrics.Histogram` per pipeline stage (count /
latency sum / min / max / bucket counts) and the kernels feed it with
columnar per-batch flushes instead of per-request spans.

Design contract (mirrors :class:`~repro.obs.metrics.MetricsRegistry`
and :class:`~repro.obs.timeline.TimelineCollector`):

- the disabled path is the shared :data:`NULL_STAGES` null object, so
  instrumented sites cost one ``stages.enabled`` attribute check;
- :meth:`StageAccumulator.to_dict` / :meth:`~StageAccumulator.from_dict`
  round-trip losslessly and :meth:`~StageAccumulator.merge` of shards is
  associative (pinned by a hypothesis property in
  ``tests/obs/test_stages.py``);
- **reconciliation**: for any trace, the per-stage totals collected in
  summary mode equal the grouped sums of the trace spans bit-for-bit.
  The kernels guarantee this by recording the *same* ``end - start``
  float expressions the spans would have carried, and
  :meth:`~StageAccumulator.record_many` folds a flush in one loop that
  adds samples one at a time (never ``sum()``), so a columnar flush
  reproduces the per-sample accumulation order exactly.  ``tests/system/test_stage_reconciliation``
  enforces this for every registered controller.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

from repro.obs.metrics import LATENCY_BOUNDS_NS, Histogram

#: Bump when the serialised stage shape changes.
STAGES_SCHEMA_VERSION = 1


class NullStageAccumulator:
    """The disabled accumulator: every method is a no-op, ``enabled`` is False."""

    enabled = False

    def record(self, stage: str, duration_ns: float) -> None:
        """Discard one stage sample."""

    def record_many(self, stage: str, durations_ns: Iterable[float]) -> None:
        """Discard a columnar batch of stage samples."""


#: Shared no-op accumulator every instrumented object points at by default.
NULL_STAGES = NullStageAccumulator()


class StageAccumulator:
    """Per-stage latency histograms fed by columnar batch flushes.

    ``bounds`` fixes the histogram bucket edges for every stage at
    construction (default: the shared simulated-latency buckets), so any
    two accumulators built with the same bounds merge losslessly.
    """

    enabled = True

    def __init__(self, bounds: tuple[float, ...] = LATENCY_BOUNDS_NS) -> None:
        self.bounds = tuple(float(b) for b in bounds)
        self._stages: dict[str, Histogram] = {}

    # -- hot path -----------------------------------------------------------

    def record(self, stage: str, duration_ns: float) -> None:
        """Account one stage sample (sim-clock nanoseconds)."""
        histogram = self._stages.get(stage)
        if histogram is None:
            histogram = Histogram(stage, bounds=self.bounds)
            self._stages[stage] = histogram
        histogram.observe(duration_ns)

    def record_many(self, stage: str, durations_ns: Iterable[float]) -> None:
        """Account a columnar batch of samples for one stage.

        One fold per flush: each sample is bucketed and added to the total
        one at a time, in order (never ``sum()``), so the float totals are
        bit-identical to :meth:`record` of the same durations one by one,
        which is what the reconciliation suite asserts; ``min``/``max`` of
        the column and one ``count`` update give the same extremes and
        count for any non-NaN samples.  An empty batch records nothing
        (and never creates an empty stage, so flushed-but-unused stages
        don't appear).
        """
        samples = durations_ns if isinstance(durations_ns, (list, tuple)) else list(durations_ns)
        if not samples:
            return
        histogram = self._stages.get(stage)
        if histogram is None:
            histogram = Histogram(stage, bounds=self.bounds)
            self._stages[stage] = histogram
        counts = histogram.counts
        bounds = histogram.bounds
        total = histogram.total
        for duration_ns in samples:
            counts[bisect_left(bounds, duration_ns)] += 1
            total += duration_ns
        histogram.total = total
        low = min(samples)
        if not histogram.count or low < histogram.min_value:
            histogram.min_value = low
        high = max(samples)
        if high > histogram.max_value:
            histogram.max_value = high
        histogram.count += len(samples)

    # -- queries ------------------------------------------------------------

    def stage_names(self) -> list[str]:
        """Recorded stage names, sorted."""
        return sorted(self._stages)

    def histogram(self, stage: str) -> Histogram | None:
        """The histogram backing ``stage``, or ``None`` if never recorded."""
        return self._stages.get(stage)

    def histograms(self) -> dict[str, Histogram]:
        """Stage → backing histogram, sorted by stage name."""
        return {name: self._stages[name] for name in sorted(self._stages)}

    def counts(self) -> dict[str, int]:
        """Per-stage sample counts."""
        return {name: self._stages[name].count for name in sorted(self._stages)}

    def totals(self) -> dict[str, float]:
        """Per-stage latency sums in sim-clock nanoseconds."""
        return {name: self._stages[name].total for name in sorted(self._stages)}

    def reset(self) -> None:
        """Drop every recorded stage."""
        self._stages.clear()

    # -- serialisation (MetricsRegistry contract) ---------------------------

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        stages: dict[str, Any] = {}
        for name in sorted(self._stages):
            stages[name] = _stage_entry(self._stages[name])
        return {
            "schema": STAGES_SCHEMA_VERSION,
            "bounds": list(self.bounds),
            "stages": stages,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "StageAccumulator":
        """Rebuild an accumulator from :meth:`to_dict` output."""
        if payload.get("schema") != STAGES_SCHEMA_VERSION:
            raise ValueError(
                f"stages schema must be {STAGES_SCHEMA_VERSION}, "
                f"got {payload.get('schema')!r}"
            )
        accumulator = cls(bounds=tuple(payload["bounds"]))
        for name, entry in payload.get("stages", {}).items():
            accumulator._stages[name] = _stage_histogram(name, accumulator.bounds, entry)
        return accumulator

    def merge(self, other: "StageAccumulator | dict[str, Any]") -> None:
        """Fold another shard in; bucket bounds must match exactly.

        Merging per-worker shards sums every per-stage histogram, which
        equals recording all samples in one process — the associativity
        contract :class:`~repro.obs.metrics.Histogram` makes.
        """
        shard = other if isinstance(other, StageAccumulator) else self.from_dict(other)
        if self.bounds != shard.bounds:
            raise ValueError(
                f"cannot merge stage accumulators with different bounds "
                f"({self.bounds} vs {shard.bounds})"
            )
        for name, incoming in shard._stages.items():
            histogram = self._stages.get(name)
            if histogram is None:
                histogram = Histogram(name, bounds=self.bounds)
                self._stages[name] = histogram
            histogram.merge(incoming)


def _stage_entry(histogram: Histogram) -> dict[str, Any]:
    """One stage's serialised form (shared by ``to_dict`` and consumers)."""
    return {
        "count": histogram.count,
        "total_ns": histogram.total,
        "min_ns": histogram.min_value,
        "max_ns": histogram.max_value,
        "counts": list(histogram.counts),
    }


def _stage_histogram(
    name: str, bounds: tuple[float, ...], entry: dict[str, Any]
) -> Histogram:
    """Rebuild one stage's histogram from its :func:`_stage_entry` form."""
    histogram = Histogram(name, bounds=bounds)
    histogram.counts = [int(c) for c in entry["counts"]]
    histogram.count = int(entry["count"])
    histogram.total = float(entry["total_ns"])
    histogram.min_value = float(entry["min_ns"])
    histogram.max_value = float(entry["max_ns"])
    return histogram


#: Anything accepting the accumulator surface (real or null).
StagesLike = StageAccumulator | NullStageAccumulator
