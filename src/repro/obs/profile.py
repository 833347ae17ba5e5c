"""Deterministic per-kernel batch profiler (``python -m repro profile``).

Full tracing answers "where did the *simulated* time go?" one span per
stage occurrence, which is too heavy to answer "where does the *host*
time go in the kernels?".  This module profiles the fast path without
perturbing it:

- a :class:`BatchProfiler` wraps the controller's ``service_batch`` as an
  **instance attribute** (the simulator dispatches through the instance;
  the class and every other instance are untouched) and brackets each
  batch call with ``time.perf_counter_ns``;
- sim-time attribution inside each kernel comes from an attached
  :class:`~repro.obs.stages.StageAccumulator` (summary mode), fed with
  columnar per-batch flushes;
- wall-clock numbers live only in the profiler object — never in
  simulator or controller state — so the serialised
  :class:`~repro.system.metrics.SimulationReport` of a profiled run stays
  byte-identical to an unobserved run.

The profiler's *deterministic* outputs (stage table, collapsed-stack
flamegraph) are pure functions of the stage accumulator, i.e. of the
simulated clock; only the explicitly labelled ``wall`` section varies
between hosts.  Flamegraph lines use the collapsed-stack format consumed
by ``flamegraph.pl`` / speedscope::

    controller;DeWriteController.service_batch;write.crypto 182034

with integer sim-nanosecond weights.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Callable

from repro.obs.stages import StageAccumulator

if TYPE_CHECKING:  # repro.core imports repro.obs — import lazily to avoid the cycle
    from repro.core.interface import MemoryController

#: Bump when the profile report payload shape changes.
PROFILE_SCHEMA_VERSION = 1


class BatchProfiler:
    """Times every ``service_batch`` call of one controller.

    Usage::

        profiler = BatchProfiler(controller)
        with profiler:
            simulate(controller, trace)
        print(render_stage_table(profiler))

    ``stages`` may be a pre-built accumulator to share with other
    observers; by default the profiler attaches its own.  ``clock`` is an
    injection point for deterministic tests (defaults to
    :func:`time.perf_counter_ns`).
    """

    def __init__(
        self,
        controller: "MemoryController",
        stages: StageAccumulator | None = None,
        clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.controller = controller
        self.stages = stages if stages is not None else StageAccumulator()
        self._clock = clock
        self.batches = 0
        self.requests = 0
        self.wall_ns_total = 0
        self.wall_ns_min = 0
        self.wall_ns_max = 0
        self._attached = False

    # -- wrapping -----------------------------------------------------------

    def attach(self) -> "BatchProfiler":
        """Attach the stage accumulator and install the timing wrapper."""
        if self._attached:
            raise RuntimeError("profiler is already attached")
        controller = self.controller
        controller.attach_observers(stages=self.stages)
        inner = controller.service_batch  # bound class implementation
        clock = self._clock

        def timed_service_batch(batch: Any, cursor: Any, max_requests: int | None = None) -> Any:
            start = clock()
            outcome = inner(batch, cursor, max_requests=max_requests)
            elapsed = clock() - start
            self.batches += 1
            self.requests += outcome.serviced
            self.wall_ns_total += elapsed
            if self.batches == 1 or elapsed < self.wall_ns_min:
                self.wall_ns_min = elapsed
            if elapsed > self.wall_ns_max:
                self.wall_ns_max = elapsed
            return outcome

        # Shadow via the instance so the class stays untouched.
        controller.service_batch = timed_service_batch  # type: ignore[method-assign]
        self._attached = True
        return self

    def detach(self) -> None:
        """Remove the wrapper, re-exposing the class implementation."""
        if self._attached:
            del self.controller.service_batch  # type: ignore[method-assign]
            self._attached = False

    def __enter__(self) -> "BatchProfiler":
        return self.attach()

    def __exit__(self, *exc_info: Any) -> None:
        self.detach()

    # -- deterministic attribution ------------------------------------------

    @property
    def kernel(self) -> str:
        """The profiled kernel's display name (``Class.service_batch``)."""
        return f"{type(self.controller).__name__}.service_batch"

    def stage_rows(self) -> list[dict[str, Any]]:
        """Per-stage attribution rows, heaviest total first.

        Pure function of the stage accumulator: deterministic across
        hosts and runs.  ``share`` is the stage's fraction of the summed
        leaf totals (composite ``read``/``write`` stages excluded so the
        shares of the leaves they contain sum to ~1).
        """
        histograms = self.stages.histograms()
        leaf_total = sum(
            histogram.total for name, histogram in histograms.items() if "." in name
        )
        rows = []
        for name, histogram in histograms.items():
            leaf = "." in name
            rows.append(
                {
                    "stage": name,
                    "count": histogram.count,
                    "total_ns": histogram.total,
                    "mean_ns": histogram.total / histogram.count if histogram.count else 0.0,
                    "max_ns": histogram.max_value,
                    "share": (histogram.total / leaf_total) if leaf and leaf_total else None,
                }
            )
        rows.sort(key=lambda row: (-row["total_ns"], row["stage"]))
        return rows

    def collapsed_stacks(self) -> list[str]:
        """Flamegraph lines in collapsed-stack format, sim-ns weights.

        Only leaf stages (``write.crypto``, ``read.nvm``, ...) become
        frames — the composite ``read``/``write`` envelopes would double
        count their children.  Deterministic: derived entirely from the
        simulated clock.
        """
        kernel = self.kernel
        lines = []
        for name, histogram in self.stages.histograms().items():
            if "." not in name:
                continue
            weight = round(histogram.total)
            if weight:
                lines.append(f"controller;{kernel};{name} {weight}")
        return lines

    # -- full payload --------------------------------------------------------

    def report(self) -> dict[str, Any]:
        """JSON-shaped profile: deterministic stages + labelled wall section."""
        return {
            "schema": PROFILE_SCHEMA_VERSION,
            "kernel": self.kernel,
            "stages": self.stages.to_dict(),
            "stage_rows": self.stage_rows(),
            "flamegraph": self.collapsed_stacks(),
            "wall": {
                "batches": self.batches,
                "requests": self.requests,
                "wall_ns_total": self.wall_ns_total,
                "wall_ns_min": self.wall_ns_min,
                "wall_ns_max": self.wall_ns_max,
                "wall_ns_per_request": (
                    self.wall_ns_total / self.requests if self.requests else 0.0
                ),
            },
        }


def render_stage_table(profiler: BatchProfiler) -> str:
    """The ``repro profile`` stage table (deterministic portion)."""
    rows = profiler.stage_rows()
    header = f"{'stage':<16}{'count':>10}{'total sim ms':>14}{'mean ns':>12}{'share':>8}"
    lines = [f"kernel: {profiler.kernel}", header, "-" * len(header)]
    for row in rows:
        share = f"{row['share'] * 100.0:6.1f}%" if row["share"] is not None else "      -"
        lines.append(
            f"{row['stage']:<16}{row['count']:>10}"
            f"{row['total_ns'] / 1e6:>14.3f}{row['mean_ns']:>12.1f}{share:>8}"
        )
    return "\n".join(lines)


def render_wall_summary(profiler: BatchProfiler) -> str:
    """The host-time footer (non-deterministic, labelled as such)."""
    wall = profiler.report()["wall"]
    return (
        f"wall (host, non-deterministic): {wall['batches']} batches, "
        f"{wall['requests']} requests, "
        f"{wall['wall_ns_total'] / 1e6:.2f} ms total, "
        f"{wall['wall_ns_per_request']:.0f} ns/request"
    )
