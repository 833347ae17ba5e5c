"""Structured event/trace bus: spans, events, and the null tracer.

Two clocks run through every simulation:

- **sim time** — the explicit ``now_ns`` timeline the controllers and the
  NVM device compute with.  Controller/NVM spans carry sim-time start and
  end stamps, so a span's duration is exactly the latency the simulated
  hardware charged for that pipeline stage.
- **wall time** — ``time.perf_counter_ns`` of the host, used by the runner
  engine for per-job spans (queue wait vs. compute) and recorded on every
  record so traces can be ordered even when sim time restarts per job.

Design constraints (see docs/architecture.md §11):

- zero dependencies, plain-JSON records only;
- the instrumented hot path costs **one attribute check** when tracing is
  off: every call site is guarded by ``if tracer.enabled:`` and the
  default tracer is the shared :data:`NULL_TRACER`, whose methods are
  no-ops and whose ``enabled`` is ``False``;
- records are buffered in memory (``Tracer.records``) and optionally
  streamed to a sink callable — e.g. :class:`repro.obs.sinks.JsonlSink` —
  as they are emitted.

Span naming convention: ``<request>.<stage>`` in sim time —
``write.hash``, ``write.dedup``, ``write.crypto``, ``write.nvm``,
``read.metadata``, ``read.nvm``, ``read.crypto`` — with one enclosing
``write`` / ``read`` span per request; device-level events are
``nvm.read`` / ``nvm.write``; runner records are wall-clock ``job`` spans
and ``job.retry`` / ``job.failed`` events.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

Record = dict[str, Any]
Sink = Callable[[Record], None]


class NullTracer:
    """The disabled tracer: every method is a no-op, ``enabled`` is False.

    Instrumented code holds a reference to this singleton by default, so
    the cost of tracing-off is the ``tracer.enabled`` attribute check at
    each call site and nothing else.
    """

    enabled = False
    records: tuple[Record, ...] = ()

    def span(self, name: str, start_ns: float, end_ns: float, **attrs: Any) -> None:
        """Discard a sim-time span."""

    def event(self, name: str, sim_ns: float | None = None, **attrs: Any) -> None:
        """Discard an event."""

    def set_context(self, **attrs: Any) -> None:
        """Discard contextual attributes."""

    def clear_context(self) -> None:
        """No context to clear."""

    @contextmanager
    def wall_span(self, name: str, **attrs: Any) -> Iterator[Record]:
        """Yield a throwaway dict; record nothing."""
        yield {}

    def close(self) -> None:
        """Nothing to flush."""


#: Shared no-op tracer every instrumented object points at by default.
NULL_TRACER = NullTracer()


class Tracer:
    """Collecting tracer: buffers records, optionally streaming to a sink.

    Records are plain dicts with a stable shape:

    ``{"type": "span", "name": ..., "clock": "sim", "start_ns": ...,
    "end_ns": ..., "dur_ns": ..., "wall_ns": ..., "depth": ...,
    "seq": ..., "attrs": {...}, "ctx": {...}}``

    ``clock`` is ``"sim"`` for spans stamped with simulated nanoseconds
    and ``"wall"`` for host-time spans (runner jobs).  Events use
    ``"type": "event"`` and carry ``sim_ns`` when the emitter had a
    simulated timestamp.  ``ctx`` holds the attributes installed with
    :meth:`set_context` (e.g. which controller or job emitted the record).
    """

    enabled = True

    def __init__(self, sink: Sink | None = None) -> None:
        # Emission hot path appends compact tuples; dict records are
        # materialised lazily (building an 11-key dict per record costs
        # several times a tuple append, and a traced simulation emits ~5
        # records per simulated access).  Tuple layout:
        #   (type, name, clock, start_ns, end_ns, depth, wall_ns, attrs, ctx)
        # where events reuse start_ns for sim_ns (None when absent) and
        # clock/end_ns are None.
        self._buffer: list[tuple[Any, ...]] = []
        self._append = self._buffer.append
        self._records: list[Record] = []
        self._sink = sink
        self._depth = 0
        self._context: dict[str, Any] = {}
        self._context_snapshot: dict[str, Any] | None = None
        self._clock = time.perf_counter_ns
        self._origin_wall_ns = time.perf_counter_ns()

    # -- emission -----------------------------------------------------------

    def span(self, name: str, start_ns: float, end_ns: float, **attrs: Any) -> None:
        """Record one completed sim-time span (explicit timestamps)."""
        self._append(
            ("span", name, "sim", start_ns, end_ns, self._depth,
             self._clock() - self._origin_wall_ns, attrs, self._context_snapshot)
        )
        if self._sink is not None:
            self._sink(self._materialize()[-1])

    def span_wall(self, name: str, wall_start_ns: int, wall_end_ns: int, **attrs: Any) -> None:
        """Record one completed wall-clock span (host ``perf_counter_ns``)."""
        self._append(
            ("span", name, "wall", wall_start_ns, wall_end_ns, self._depth,
             self._clock() - self._origin_wall_ns, attrs, self._context_snapshot)
        )
        if self._sink is not None:
            self._sink(self._materialize()[-1])

    def event(self, name: str, sim_ns: float | None = None, **attrs: Any) -> None:
        """Record one point-in-time event."""
        self._append(
            ("event", name, None, sim_ns, None, self._depth,
             self._clock() - self._origin_wall_ns, attrs, self._context_snapshot)
        )
        if self._sink is not None:
            self._sink(self._materialize()[-1])

    def _materialize(self) -> list[Record]:
        """Extend the dict-record view to cover every buffered tuple."""
        records = self._records
        buffer = self._buffer
        for seq in range(len(records), len(buffer)):
            kind, name, clock, start, end, depth, wall_ns, attrs, ctx = buffer[seq]
            if kind == "span":
                record: Record = {
                    "type": "span",
                    "name": name,
                    "clock": clock,
                    "start_ns": start,
                    "end_ns": end,
                    "dur_ns": end - start,
                    "depth": depth,
                    "seq": seq,
                    "wall_ns": wall_ns,
                    "attrs": attrs,
                }
            else:
                record = {
                    "type": "event",
                    "name": name,
                    "seq": seq,
                    "wall_ns": wall_ns,
                    "attrs": attrs,
                }
                if start is not None:
                    record["sim_ns"] = start
            if ctx is not None:
                record["ctx"] = ctx
            records.append(record)
        return records

    @property
    def records(self) -> list[Record]:
        """All emitted records as plain dicts, in emission order."""
        return self._materialize()

    @contextmanager
    def wall_span(self, name: str, **attrs: Any) -> Iterator[Record]:
        """Measure a host-time block; yields the attrs dict for enrichment."""
        start = time.perf_counter_ns()
        self._depth += 1
        merged = dict(attrs)
        try:
            yield merged
        finally:
            self._depth -= 1
            self.span_wall(name, start, time.perf_counter_ns(), **merged)

    # -- context ------------------------------------------------------------

    def set_context(self, **attrs: Any) -> None:
        """Attach attributes to every subsequent record (e.g. controller)."""
        self._context.update(attrs)
        self._context_snapshot = dict(self._context) if self._context else None

    def clear_context(self) -> None:
        """Drop all contextual attributes."""
        self._context.clear()
        self._context_snapshot = None

    # -- queries ------------------------------------------------------------

    def spans(self, name: str | None = None) -> list[Record]:
        """Span records, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if record["type"] == "span" and (name is None or record["name"] == name)
        ]

    def events(self, name: str | None = None) -> list[Record]:
        """Event records, optionally filtered by exact name."""
        return [
            record
            for record in self.records
            if record["type"] == "event" and (name is None or record["name"] == name)
        ]

    def stage_durations(self, clock: str = "sim") -> dict[str, list[float]]:
        """Span durations grouped by name, for percentile breakdowns."""
        stages: dict[str, list[float]] = {}
        for record in self.records:
            if record["type"] != "span" or record.get("clock") != clock:
                continue
            stages.setdefault(record["name"], []).append(float(record["dur_ns"]))
        return stages

    def close(self) -> None:
        """Flush and close the sink, if it supports closing."""
        close = getattr(self._sink, "close", None)
        if close is not None:
            close()


#: Anything accepting the Tracer emission surface (Tracer or NullTracer).
TracerLike = Tracer | NullTracer


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending-sorted sample (0 < q <= 100)."""
    if not sorted_values:
        return 0.0
    if not 0.0 < q <= 100.0:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    rank = max(1, math.ceil(q * len(sorted_values) / 100.0))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def latency_summary(durations: list[float]) -> dict[str, float]:
    """``{count, mean, p50, p95, p99, max}`` of one stage's span durations.

    The row ``repro trace`` prints and ``repro diff`` compares per stage;
    ``durations`` must be non-empty.
    """
    ordered = sorted(durations)
    return {
        "count": float(len(ordered)),
        "mean": sum(ordered) / len(ordered),
        "p50": percentile(ordered, 50),
        "p95": percentile(ordered, 95),
        "p99": percentile(ordered, 99),
        "max": ordered[-1],
    }
