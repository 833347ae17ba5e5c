"""Tracing overhead gate: traced vs. untraced wall time on one workload.

CI runs ``python -m repro.obs.overhead --budget 0.15`` to pin the promise
the observability layer makes: with a live :class:`~repro.obs.trace.Tracer`
attached, a full simulation must stay within the budgeted fraction of the
untraced wall time (and with tracing *disabled* the cost is one attribute
check per instrumentation site, which no timer can see).  That attaching
an observer never changes the path a request takes is pinned by the test
suite, which counts every device and metadata call under each observer.

Runs are interleaved (untraced, traced, untraced, traced, ...) and the
minimum per mode is compared, which suppresses one-off scheduler noise on
shared CI machines.  Because noise can only *inflate* the measured
overhead, the gate may stop early as soon as the running minima fall
within budget (after a floor of three pairs) — a load burst during the
traced runs then costs extra repeats instead of a spurious failure.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Any

from repro.obs.sinks import stdout_line
from repro.obs.trace import Tracer


def measure(
    *,
    app: str = "lbm",
    accesses: int = 5000,
    seed: int = 1,
    repeats: int = 10,
    early_exit_budget: float | None = None,
    with_timeline: bool = False,
    with_stages: bool = False,
    with_events: bool = False,
) -> dict[str, Any]:
    """Best-of-``repeats`` traced and untraced wall times, interleaved.

    With ``early_exit_budget`` set, sampling stops once the running
    minima show overhead within that budget (after at least three
    pairs) — valid for a pass/fail gate because noise only ever pushes
    the measured overhead *up*, never down.  ``with_timeline``
    additionally attaches a windowed
    :class:`~repro.obs.timeline.TimelineCollector` in the instrumented
    arm, so the same budget covers tracer + timeline together.

    ``with_stages`` measures the *summary mode* instead: the
    instrumented arm attaches only a
    :class:`~repro.obs.stages.StageAccumulator` (no tracer).

    ``with_events`` measures the *live telemetry* path: the instrumented
    arm attaches a StageAccumulator **and** streams schema-v1 lifecycle
    records plus a full metrics+stages snapshot per run through an
    :class:`~repro.obs.events.EventBus` onto a JSONL sink — emission
    happens inside the timed interval, so the budget covers everything
    ``repro run --events`` adds.  Its result adds an ``"events"``
    section with the emitted/dropped counts and the stream path for
    schema validation.
    """
    if with_stages + with_timeline + with_events > 1:
        raise ValueError(
            "with_stages, with_timeline and with_events are separate arms; pick one"
        )
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.obs.metrics import registry
    from repro.obs.stages import StageAccumulator
    from repro.runner.jobs import trace_for
    from repro.system.simulator import simulate

    trace = trace_for(app, accesses, seed)

    events_bus = None
    events_path: str | None = None
    if with_events:
        import tempfile
        from pathlib import Path

        from repro.obs.events import EventBus
        from repro.obs.sinks import JsonlSink

        events_path = str(
            Path(tempfile.mkdtemp(prefix="repro-overhead-events-")) / "events.jsonl"
        )
        # Zero interval: every maybe_snapshot emits, the worst case for
        # the live path (the engine throttles to one per second).
        events_bus = EventBus(JsonlSink(events_path), snapshot_interval_s=0.0)

    def one_run(traced: bool) -> float:
        controller = build_controller("dewrite", NvmMainMemory())
        label = f"{app}/{accesses}"
        if traced:
            if with_stages:
                controller.attach_observers(stages=StageAccumulator())
            elif with_events:
                accumulator = StageAccumulator()
                controller.attach_observers(stages=accumulator)
                if events_bus is None:
                    raise RuntimeError("with_events arm requires an event bus")
                started = time.perf_counter()
                events_bus.emit("started", key=app, label=label, attempt=1)
                simulate(controller, trace)
                events_bus.maybe_snapshot(
                    done=1,
                    failed=0,
                    in_flight=0,
                    total=1,
                    metrics=registry().to_dict(),
                    stages=accumulator.to_dict(),
                )
                elapsed = time.perf_counter() - started
                events_bus.emit(
                    "finished",
                    key=app,
                    label=label,
                    status="ok",
                    compute_s=elapsed,
                    queue_s=0.0,
                    attempts=1,
                )
                return time.perf_counter() - started
            else:
                controller.attach_observers(tracer=Tracer(sink=None))
                if with_timeline:
                    from repro.obs.timeline import TimelineCollector

                    controller.attach_observers(timeline=TimelineCollector())
        started = time.perf_counter()
        simulate(controller, trace)
        return time.perf_counter() - started

    one_run(False)  # warm imports/JIT-ish caches outside the measurement
    untraced = traced = float("inf")
    pairs = 0
    for _ in range(repeats):
        untraced = min(untraced, one_run(False))
        traced = min(traced, one_run(True))
        pairs += 1
        if (
            early_exit_budget is not None
            and pairs >= 3
            and traced / untraced - 1.0 <= early_exit_budget
        ):
            break
    overhead = traced / untraced - 1.0 if untraced > 0 else 0.0
    result = {
        "app": app,
        "accesses": accesses,
        "pairs": pairs,
        "untraced_s": untraced,
        "traced_s": traced,
        "overhead": overhead,
    }
    if with_events and events_bus is not None:
        events_bus.close()
        result["events"] = {
            "emitted": events_bus.emitted,
            "dropped": events_bus.dropped,
            "path": events_path,
        }
    return result


def main(argv: list[str] | None = None) -> int:
    """CLI entry: exit 0 when overhead is within budget, 1 otherwise."""
    parser = argparse.ArgumentParser(
        prog="repro.obs.overhead",
        description="measure tracing overhead (traced vs untraced wall time)",
    )
    parser.add_argument("--app", default="lbm")
    parser.add_argument("--accesses", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument(
        "--budget", type=float, default=0.15,
        help="maximum allowed fractional overhead (default 0.15)",
    )
    parser.add_argument(
        "--with-timeline", action="store_true",
        help="also attach a windowed TimelineCollector in the traced arm",
    )
    parser.add_argument(
        "--with-stages", action="store_true",
        help="measure summary mode instead: attach only a StageAccumulator",
    )
    parser.add_argument(
        "--with-events", action="store_true",
        help="measure the live telemetry path: StageAccumulator plus an "
        "EventBus streaming lifecycle records and per-run snapshots to "
        "JSONL (emitted records are schema-validated)",
    )
    args = parser.parse_args(argv)
    result = measure(
        app=args.app,
        accesses=args.accesses,
        seed=args.seed,
        repeats=args.repeats,
        early_exit_budget=args.budget,
        with_timeline=args.with_timeline,
        with_stages=args.with_stages,
        with_events=args.with_events,
    )
    if args.with_events:
        instrumented = "staged+events"
    elif args.with_stages:
        instrumented = "staged"
    elif args.with_timeline:
        instrumented = "traced+timeline"
    else:
        instrumented = "traced"
    stdout_line(
        f"tracing overhead: untraced {result['untraced_s']:.3f}s, "
        f"{instrumented} {result['traced_s']:.3f}s, overhead {result['overhead']:+.1%} "
        f"(budget {args.budget:.0%}, {result['app']}/{result['accesses']} accesses, "
        f"{result['pairs']} pairs)"
    )
    if args.with_events:
        from repro.obs.events import read_events, validate_event

        events = result["events"]
        problems: list[str] = []
        for record in read_events(events["path"]):
            problems.extend(validate_event(record))
        stdout_line(
            f"events: {events['emitted']} emitted, {events['dropped']} dropped, "
            f"{len(problems)} schema problem(s)"
        )
        if problems or events["dropped"] or not events["emitted"]:
            for problem in problems[:10]:
                stdout_line(f"  schema: {problem}")
            return 1
    return 0 if result["overhead"] <= args.budget else 1


if __name__ == "__main__":
    sys.exit(main())
