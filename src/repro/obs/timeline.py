"""Windowed time-series collection over the simulated clock.

The paper's headline numbers are longitudinal: duplication rate evolves
over a workload's phases (Fig. 2) and endurance is about how wear
*accumulates*.  Point-in-time spans (:mod:`repro.obs.trace`) answer
"where did one request's nanoseconds go"; this module answers "how did
the run behave over time" by bucketing every request into fixed
sim-time windows and keeping per-window counters:

- request mix: writes / deduplicated writes / reads, latency sums;
- metadata-cache traffic: accesses and hits (→ per-window hit rate);
- device traffic: NVM reads/writes, bit flips, per-bank queue waits.

Design contract (mirrors :class:`~repro.obs.metrics.MetricsRegistry`):

- the disabled path is the shared :data:`NULL_TIMELINE` null object, so
  instrumented sites cost one ``timeline.enabled`` attribute check;
- :meth:`TimelineCollector.to_dict` / :meth:`~TimelineCollector.from_dict`
  round-trip losslessly, and :meth:`~TimelineCollector.merge` of
  per-worker shards equals single-process collection (pinned by a
  hypothesis property in ``tests/obs/test_timeline.py``);
- windows are ring-buffered: past ``max_windows`` distinct windows the
  *oldest* window is evicted (counted in ``evicted_windows``), bounding
  memory on arbitrarily long runs.
"""

from __future__ import annotations

import math
from typing import Any

#: Bump when the serialised window shape changes.
TIMELINE_SCHEMA_VERSION = 1

#: Per-window scalar counters (ints except the *_ns latency sums).
_SCALAR_FIELDS = (
    "writes",
    "dedup_writes",
    "reads",
    "write_latency_ns",
    "read_latency_ns",
    "meta_accesses",
    "meta_hits",
    "nvm_reads",
    "nvm_writes",
    "bit_flips",
    "bank_wait_ns",
)

#: Per-window per-bank dict counters (bank index → value).
_BANK_FIELDS = ("bank_accesses", "bank_wait_by_bank_ns")


def _new_window() -> dict[str, Any]:
    window: dict[str, Any] = dict.fromkeys(_SCALAR_FIELDS, 0.0)
    for field in _BANK_FIELDS:
        window[field] = {}
    return window


class NullTimeline:
    """The disabled collector: every method is a no-op, ``enabled`` is False."""

    enabled = False

    def record_write(
        self, sim_ns: float, *, deduplicated: bool, latency_ns: float
    ) -> None:
        """Discard a write sample."""

    def record_read(self, sim_ns: float, *, latency_ns: float) -> None:
        """Discard a read sample."""

    def record_metadata(self, sim_ns: float, *, hit: bool) -> None:
        """Discard a metadata-cache sample."""

    def record_nvm_read(self, sim_ns: float, *, bank: int, wait_ns: float) -> None:
        """Discard a device-read sample."""

    def record_nvm_write(
        self, sim_ns: float, *, bank: int, wait_ns: float, bit_flips: int
    ) -> None:
        """Discard a device-write sample."""


#: Shared no-op collector every instrumented object points at by default.
NULL_TIMELINE = NullTimeline()


class TimelineCollector:
    """Ring-buffered per-window counters over the simulated clock.

    ``window_ns`` fixes the bucket width; a sample at sim time ``t`` lands
    in window ``int(t // window_ns)``.  ``max_windows`` bounds memory:
    once exceeded, the smallest-indexed window is dropped and counted in
    :attr:`evicted_windows`.
    """

    enabled = True

    def __init__(self, window_ns: float = 1_000_000.0, max_windows: int = 4096) -> None:
        if window_ns <= 0:
            raise ValueError(f"window width must be positive, got {window_ns}")
        if max_windows < 1:
            raise ValueError(f"need at least one window, got {max_windows}")
        self.window_ns = float(window_ns)
        self.max_windows = max_windows
        self.evicted_windows = 0
        self._windows: dict[int, dict[str, Any]] = {}
        # Hot-path cache: consecutive samples overwhelmingly land in the
        # same window, so remember the last (index, window) pair.
        self._last_index = -1
        self._last_window: dict[str, Any] | None = None

    # -- hot path -----------------------------------------------------------

    def _window(self, sim_ns: float) -> dict[str, Any]:
        index = int(sim_ns // self.window_ns)
        if index == self._last_index and self._last_window is not None:
            return self._last_window
        window = self._windows.get(index)
        if window is None:
            window = _new_window()
            self._windows[index] = window
            if len(self._windows) > self.max_windows:
                oldest = min(self._windows)
                del self._windows[oldest]
                self.evicted_windows += 1
                if oldest == self._last_index:
                    self._last_window = None
                if oldest == index:
                    # The out-of-order sample is itself older than every
                    # retained window: account it to the evicted bucket.
                    self._last_index = -1
                    self._last_window = None
                    return window
        self._last_index = index
        self._last_window = window
        return window

    def record_write(
        self, sim_ns: float, *, deduplicated: bool, latency_ns: float
    ) -> None:
        """Account one serviced line-write request."""
        window = self._window(sim_ns)
        window["writes"] += 1
        if deduplicated:
            window["dedup_writes"] += 1
        window["write_latency_ns"] += latency_ns

    def record_read(self, sim_ns: float, *, latency_ns: float) -> None:
        """Account one serviced line-read request."""
        window = self._window(sim_ns)
        window["reads"] += 1
        window["read_latency_ns"] += latency_ns

    def record_metadata(self, sim_ns: float, *, hit: bool) -> None:
        """Account one metadata-cache access."""
        window = self._window(sim_ns)
        window["meta_accesses"] += 1
        if hit:
            window["meta_hits"] += 1

    def record_nvm_read(self, sim_ns: float, *, bank: int, wait_ns: float) -> None:
        """Account one device-level array read."""
        window = self._window(sim_ns)
        window["nvm_reads"] += 1
        window["bank_wait_ns"] += wait_ns
        accesses = window["bank_accesses"]
        accesses[bank] = accesses.get(bank, 0) + 1
        waits = window["bank_wait_by_bank_ns"]
        waits[bank] = waits.get(bank, 0.0) + wait_ns

    def record_nvm_write(
        self, sim_ns: float, *, bank: int, wait_ns: float, bit_flips: int
    ) -> None:
        """Account one device-level array write."""
        window = self._window(sim_ns)
        window["nvm_writes"] += 1
        window["bit_flips"] += bit_flips
        window["bank_wait_ns"] += wait_ns
        accesses = window["bank_accesses"]
        accesses[bank] = accesses.get(bank, 0) + 1
        waits = window["bank_wait_by_bank_ns"]
        waits[bank] = waits.get(bank, 0.0) + wait_ns

    # -- queries ------------------------------------------------------------

    def window_indices(self) -> list[int]:
        """Retained window indices, ascending."""
        return sorted(self._windows)

    def raw_window(self, index: int) -> dict[str, Any]:
        """The raw counter dict of one window (read-only by convention)."""
        return self._windows[index]

    def rows(self) -> list[dict[str, Any]]:
        """Per-window derived metrics, one dict per retained window.

        Rates that would divide by zero report 0.0 (an empty window is a
        quiet window, not an error).
        """
        rows = []
        for index in sorted(self._windows):
            window = self._windows[index]
            writes = window["writes"]
            reads = window["reads"]
            meta = window["meta_accesses"]
            device = window["nvm_reads"] + window["nvm_writes"]
            rows.append(
                {
                    "window": index,
                    "start_ns": index * self.window_ns,
                    "writes": int(writes),
                    "reads": int(reads),
                    "dedup_ratio": window["dedup_writes"] / writes if writes else 0.0,
                    "write_reduction": (
                        1.0 - window["nvm_writes"] / writes if writes else 0.0
                    ),
                    "meta_hit_rate": window["meta_hits"] / meta if meta else 0.0,
                    "mean_write_ns": (
                        window["write_latency_ns"] / writes if writes else 0.0
                    ),
                    "mean_read_ns": (
                        window["read_latency_ns"] / reads if reads else 0.0
                    ),
                    "mean_bank_wait_ns": (
                        window["bank_wait_ns"] / device if device else 0.0
                    ),
                    "bit_flips": int(window["bit_flips"]),
                    "nvm_writes": int(window["nvm_writes"]),
                }
            )
        return rows

    def totals(self) -> dict[str, float]:
        """Whole-run sums of every scalar counter."""
        sums = dict.fromkeys(_SCALAR_FIELDS, 0.0)
        for window in self._windows.values():
            for field in _SCALAR_FIELDS:
                sums[field] += window[field]
        return sums

    # -- serialisation (MetricsRegistry contract) ---------------------------

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (dict keys become strings)."""
        windows: dict[str, Any] = {}
        for index in sorted(self._windows):
            window = self._windows[index]
            entry: dict[str, Any] = {field: window[field] for field in _SCALAR_FIELDS}
            for field in _BANK_FIELDS:
                entry[field] = {
                    str(bank): value for bank, value in sorted(window[field].items())
                }
            windows[str(index)] = entry
        return {
            "schema": TIMELINE_SCHEMA_VERSION,
            "window_ns": self.window_ns,
            "max_windows": self.max_windows,
            "evicted_windows": self.evicted_windows,
            "windows": windows,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TimelineCollector":
        """Rebuild a collector from :meth:`to_dict` output."""
        if payload.get("schema") != TIMELINE_SCHEMA_VERSION:
            raise ValueError(
                f"timeline schema must be {TIMELINE_SCHEMA_VERSION}, "
                f"got {payload.get('schema')!r}"
            )
        collector = cls(
            window_ns=float(payload["window_ns"]),
            max_windows=int(payload.get("max_windows", 4096)),
        )
        collector.evicted_windows = int(payload.get("evicted_windows", 0))
        for key, entry in payload.get("windows", {}).items():
            window = _new_window()
            for field in _SCALAR_FIELDS:
                window[field] = entry.get(field, 0.0)
            for field in _BANK_FIELDS:
                window[field] = {
                    int(bank): value for bank, value in entry.get(field, {}).items()
                }
            collector._windows[int(key)] = window
        return collector

    def merge(self, other: "TimelineCollector | dict[str, Any]") -> None:
        """Fold another shard in; window widths must agree.

        Merging per-worker shards of disjoint (or overlapping) runs sums
        every per-window counter, which equals collecting all samples in
        one process — the same associativity contract
        :class:`~repro.obs.metrics.Histogram` makes.
        """
        shard = other if isinstance(other, TimelineCollector) else self.from_dict(other)
        if not math.isclose(self.window_ns, shard.window_ns):
            raise ValueError(
                f"cannot merge timelines with different window widths "
                f"({self.window_ns} vs {shard.window_ns})"
            )
        self.evicted_windows += shard.evicted_windows
        for index, incoming in shard._windows.items():
            window = self._windows.get(index)
            if window is None:
                self._windows[index] = {
                    field: (
                        dict(incoming[field])
                        if field in _BANK_FIELDS
                        else incoming[field]
                    )
                    for field in (*_SCALAR_FIELDS, *_BANK_FIELDS)
                }
                continue
            for field in _SCALAR_FIELDS:
                window[field] += incoming[field]
            for field in _BANK_FIELDS:
                target = window[field]
                for bank, value in incoming[field].items():
                    target[bank] = target.get(bank, 0) + value
        self._last_index = -1
        self._last_window = None
        while len(self._windows) > self.max_windows:
            del self._windows[min(self._windows)]
            self.evicted_windows += 1


#: Anything accepting the collector surface (real or null).
TimelineLike = TimelineCollector | NullTimeline


def render_timeline(collector: TimelineCollector, *, max_rows: int = 40) -> str:
    """Fixed-width per-window table of the derived metrics."""
    rows = collector.rows()
    lines = [
        f"{'window':>8s}{'t (us)':>10s}{'writes':>8s}{'reads':>8s}{'dup%':>7s}"
        f"{'red%':>7s}{'meta%':>7s}{'wr ns':>9s}{'rd ns':>9s}{'wait ns':>9s}"
        f"{'flips':>9s}"
    ]
    shown = rows if len(rows) <= max_rows else rows[:max_rows]
    for row in shown:
        lines.append(
            f"{row['window']:>8d}{row['start_ns'] / 1000.0:>10.1f}"
            f"{row['writes']:>8d}{row['reads']:>8d}"
            f"{row['dedup_ratio']:>7.1%}{row['write_reduction']:>7.1%}"
            f"{row['meta_hit_rate']:>7.1%}"
            f"{row['mean_write_ns']:>9.1f}{row['mean_read_ns']:>9.1f}"
            f"{row['mean_bank_wait_ns']:>9.1f}{row['bit_flips']:>9d}"
        )
    if len(rows) > max_rows:
        lines.append(f"... and {len(rows) - max_rows} more windows")
    if collector.evicted_windows:
        lines.append(f"(ring buffer evicted {collector.evicted_windows} oldest windows)")
    return "\n".join(lines)


def timeline_csv(collector: TimelineCollector) -> str:
    """The derived per-window table as CSV text (header + one line per window)."""
    columns = (
        "window",
        "start_ns",
        "writes",
        "reads",
        "dedup_ratio",
        "write_reduction",
        "meta_hit_rate",
        "mean_write_ns",
        "mean_read_ns",
        "mean_bank_wait_ns",
        "bit_flips",
        "nvm_writes",
    )
    lines = [",".join(columns)]
    for row in collector.rows():
        lines.append(",".join(repr(row[column]) for column in columns))
    return "\n".join(lines) + "\n"
