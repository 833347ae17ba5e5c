"""Host-time tracing of the simulator's layers, installed from outside it.

The program under test carries no benchmark instrumentation.  Instead,
:func:`install` replaces every public function and method of the
``repro`` layer modules (plus ``__init__``) with a timing wrapper, at every
place the code looks it up:

- the defining module's attribute (which is also what a function-local
  ``from x import f`` reads at call time);
- class ``__dict__`` entries, so methods that kernels bind to locals at
  the start of each batch (``engine.detect``, ``nvm.read_complete_ns``,
  ``metadata.access``) resolve to the wrapper;
- names other ``repro`` modules imported with ``from … import``, and
  function values of module-level registry dicts.

Every wrapped call folds into a per-function aggregate (calls, total and
self seconds), so memory stays bounded however hot the leaf.  A call's
self time is its duration minus the time of the wrapped calls nested in
it.  The coarse boundaries in :data:`COARSE` are additionally kept as
individual spans (name, layer, start, end, parent, job id) for the
Chrome/Perfetto export and the batch-latency percentiles.

Two kinds of time in the run's main process are kept out of the layers:

- the self time of a *dispatch root* — an outermost wrapped call such as
  ``run_jobs`` or ``run_service`` — is the time spent outside every
  layer call, and is reported as unattributed;
- the time ``repro.runner.engine`` blocks in ``concurrent.futures.wait``
  for pool workers is pool wait, not runner work.

Wrapping never changes the path a run takes: identity checks such as
``cls.write is not DeWriteController.write`` compare two lookups of the
same class attribute, and both see the wrapper.

Forked pool workers inherit the wrappers.  The ``execute_job`` wrapper in
a worker appends that job's aggregates and spans to
``<flush_dir>/worker-<pid>.jsonl`` when the job ends; the run's main
process merges those files with :func:`read_worker_records`.

The recorder assumes one thread runs ``repro`` code per process, which
holds for serial runs and for every pool worker.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import math
import os
import pkgutil
import sys
import time
from pathlib import Path
from types import FunctionType
from typing import Any, Callable

#: The layers per-layer metrics are reported for, in report order.
LAYERS = (
    "workloads",
    "hashes",
    "crypto",
    "nvm",
    "core.dedup",
    "core.dewrite",
    "core.interface",
    "baselines",
    "system",
    "runner",
    "serve",
    "faults",
    "obs",
)

#: Module prefix → layer; the first match wins.  ``core`` is split in
#: three: the DeWrite pipeline, its dedup/metadata machinery, and the
#: rest of ``core`` (the generic scalar driver plus the cursor, stats,
#: config and controller registry it runs with).
MODULE_LAYERS = (
    ("repro.core.dewrite", "core.dewrite"),
    ("repro.core.dedup_engine", "core.dedup"),
    ("repro.core.tables", "core.dedup"),
    ("repro.core.metadata_cache", "core.dedup"),
    ("repro.core.predictor", "core.dedup"),
    ("repro.core", "core.interface"),
    ("repro.workloads", "workloads"),
    ("repro.hashes", "hashes"),
    ("repro.crypto", "crypto"),
    ("repro.nvm", "nvm"),
    ("repro.baselines", "baselines"),
    ("repro.system", "system"),
    ("repro.runner", "runner"),
    ("repro.serve", "serve"),
    ("repro.faults", "faults"),
    ("repro.obs", "obs"),
)

#: Functions whose every call is kept as an individual span.
COARSE = frozenset(
    {
        "run_jobs",
        "run_service",
        "execute_job",
        "simulate",
        "service_batch",
        "generate_trace",
        "worst_case_trace",
        "synthesize_shard_stream",
        "run_shard_job",
        "run_crash_scenario",
        "recover",
        "audit",
    }
)

def layer_of(module: str) -> str | None:
    """The layer a ``repro`` module belongs to, or None if it is untraced."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return None


def job_id(spec: Any) -> str:
    """Stable short id of a ``JobSpec`` (its kind plus canonical params)."""
    digest = hashlib.sha1(f"{spec.kind}\0{spec.params_json}".encode())
    return digest.hexdigest()[:12]


class Recorder:
    """Per-process store of function aggregates and coarse spans."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        flush_dir: Path | None = None,
    ) -> None:
        self.clock = clock
        self.flush_dir = flush_dir
        self.main_pid = self.pid = os.getpid()
        #: Child time accumulated by each open wrapped call, innermost last.
        self.stack: list[float] = []
        self.open_spans: list[int] = []
        #: "module.qualname" → [layer, calls, total_s, self_s]
        self.functions: dict[str, list] = {}
        #: Coarse spans: (id, parent id, name, layer, start_s, end_s, job id).
        self.spans: list[tuple] = []
        #: Time covered by wrapped calls entered with an empty stack.
        self.root_s = 0.0
        #: Main process only: self time of those outermost calls, and time
        #: blocked waiting for pool workers.  Neither is charged to a layer.
        self.root_self_s = 0.0
        self.pool_wait_s = 0.0
        self.job: str | None = None
        self.metadata_systems: list[Any] = []
        self.metadata_hits = 0
        self.metadata_misses = 0
        self._next_span = 0

    # -- wrappers ---------------------------------------------------------------

    def wrap(self, fn: Callable, layer: str, key: str, coarse: bool = False) -> Callable:
        """Timing wrapper around ``fn`` feeding the aggregate under ``key``."""
        aggregate = self.functions.setdefault(key, [layer, 0, 0.0, 0.0])
        clock = self.clock
        stack = self.stack

        # Two closures rather than one with a flag: the leaf one runs on
        # every hot call, so it does only the aggregate bookkeeping.
        if not coarse:

            @functools.wraps(fn)
            def timed(*args, **kwargs):
                stack.append(0.0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    children = stack.pop()
                    aggregate[1] += 1
                    aggregate[2] += elapsed
                    if stack:
                        aggregate[3] += elapsed - children
                        stack[-1] += elapsed
                    else:
                        self._close_root(aggregate, elapsed, children)

            return timed

        name = fn.__name__
        open_spans = self.open_spans
        is_job = name == "execute_job"

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if is_job and args:
                self.job = job_id(args[0])
            self._next_span += 1
            span = self._next_span
            parent = open_spans[-1] if open_spans else None
            open_spans.append(span)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                children = stack.pop()
                open_spans.pop()
                aggregate[1] += 1
                aggregate[2] += elapsed
                if stack:
                    aggregate[3] += elapsed - children
                    stack[-1] += elapsed
                else:
                    self._close_root(aggregate, elapsed, children)
                self.spans.append((span, parent, name, layer, start, end, self.job))
                if is_job:
                    self._end_job()

        return spanned

    def _close_root(self, aggregate: list, elapsed: float, children: float) -> None:
        """Account an outermost call: in the main process it is a dispatch
        root, whose self time is unattributed; in a pool worker it is the
        job itself and keeps its self time."""
        self.root_s += elapsed
        if self.pid == self.main_pid:
            self.root_self_s += elapsed - children
        else:
            aggregate[3] += elapsed - children

    def wrap_wait(self, fn: Callable) -> Callable:
        """Wrapper around the engine's pool ``wait``: its time is pool wait,
        and counts as a child of the caller so no layer's self time holds it."""
        clock = self.clock
        stack = self.stack

        @functools.wraps(fn)
        def waited(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self.pool_wait_s += elapsed
                if stack:
                    stack[-1] += elapsed

        return waited

    def _end_job(self) -> None:
        """Fold per-job probes; in a pool worker, ship the job's records."""
        for system in self.metadata_systems:
            for cache in getattr(system, "caches", {}).values():
                self.metadata_hits += getattr(cache, "hits", 0)
                self.metadata_misses += getattr(cache, "misses", 0)
        self.metadata_systems.clear()
        if self.pid != self.main_pid and self.flush_dir is not None:
            record = self.snapshot() | {"job": self.job}
            path = self.flush_dir / f"worker-{self.pid}.jsonl"
            with path.open("a") as sink:
                sink.write(json.dumps(record) + "\n")
            self._clear()
        self.job = None

    def _clear(self) -> None:
        for aggregate in self.functions.values():
            aggregate[1] = 0
            aggregate[2] = aggregate[3] = 0.0
        self.spans.clear()
        self.root_s = self.root_self_s = self.pool_wait_s = 0.0
        self.metadata_hits = self.metadata_misses = 0
        self.metadata_systems.clear()

    def after_fork(self) -> None:
        """Start a forked worker with empty buffers and an empty call stack."""
        self.pid = os.getpid()
        self.stack.clear()
        self.open_spans.clear()
        self.job = None
        self._clear()

    # -- summaries --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A copy of this process's records, in the worker-record shape."""
        return {
            "pid": self.pid,
            "job": None,
            "functions": {k: list(v) for k, v in self.functions.items() if v[1]},
            "spans": list(self.spans),
            "metadata": [self.metadata_hits, self.metadata_misses],
        }


def read_worker_records(flush_dir: Path) -> list[dict[str, Any]]:
    """Every record pool workers flushed under ``flush_dir``."""
    records = []
    for path in sorted(flush_dir.glob("worker-*.jsonl")):
        with path.open() as source:
            records.extend(json.loads(line) for line in source if line.strip())
    return records


def layer_totals(records: list[dict[str, Any]]) -> dict[str, dict[str, float]]:
    """Per-layer calls and self seconds summed over process records."""
    totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for record in records:
        for layer, calls, _total, self_s in record["functions"].values():
            totals[layer]["self_s"] += self_s
            totals[layer]["calls"] += calls
    return totals


def top_functions(records: list[dict[str, Any]], limit: int = 25) -> list[dict[str, Any]]:
    """The functions with the most self time, summed over process records."""
    merged: dict[str, list] = {}
    for record in records:
        for key, (layer, calls, total, self_s) in record["functions"].items():
            entry = merged.setdefault(key, [layer, 0, 0.0, 0.0])
            entry[1] += calls
            entry[2] += total
            entry[3] += self_s
    ranked = sorted(merged.items(), key=lambda item: -item[1][3])[:limit]
    return [
        {"function": key, "layer": layer, "calls": calls, "total_s": total, "self_s": self_s}
        for key, (layer, calls, total, self_s) in ranked
    ]


def top_level_batches(spans: list[tuple]) -> list[float]:
    """Durations of ``service_batch`` spans not nested in another one.

    A fused kernel that falls back calls the generic driver through
    ``super()``; that inner call is part of the same batch.
    """
    names = {span[0]: span[2] for span in spans}
    return [
        span[5] - span[4]
        for span in spans
        if span[2] == "service_batch" and names.get(span[1]) != "service_batch"
    ]


def percentile(samples: list[float], rank: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    # Rounding keeps 99.9 % of 10 000 at rank 9990, not 9991.
    return ordered[max(1, math.ceil(round(rank * len(ordered) / 100.0, 6))) - 1]


#: Candidate tail percentiles in basis points, highest first.
TAIL_LADDER_BP = (9999, 9990, 9900, 9500, 9000, 7500, 5000)


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(rank, value) of the highest percentile with at least ten samples
    beyond it; the median when there are fewer than twenty samples."""
    count = len(samples)
    for bp in TAIL_LADDER_BP:
        if count * (10_000 - bp) >= 10 * 10_000:
            return bp / 100.0, percentile(samples, bp / 100.0)
    return 50.0, percentile(samples, 50.0)


def chrome_trace(records: list[dict[str, Any]], origin_s: float) -> dict[str, Any]:
    """Chrome trace-event JSON (opens in Perfetto) of every coarse span.

    Span clocks are ``time.perf_counter``, which on Linux reads the
    system-wide monotonic clock, so spans from forked workers line up
    with the main process on one time axis.
    """
    events: list[dict[str, Any]] = []
    for record in records:
        pid = record["pid"]
        for _span, _parent, name, layer, start, end, job in record["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin_s) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": pid,
                    "tid": 0,
                    "args": {"job": job},
                }
            )
    for pid in sorted({record["pid"] for record in records}):
        events.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"pid {pid}"},
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# -- installation ---------------------------------------------------------------


def _layer_modules() -> list[Any]:
    """Import and return every module of every traced layer."""
    import repro

    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) is not None:
            modules.append(importlib.import_module(info.name))
    return modules


def _wrappable(fn: Any, module: Any, name: str) -> bool:
    return (
        isinstance(fn, FunctionType)
        and (name == "__init__" or not name.startswith("_"))
        and fn.__code__.co_filename == getattr(module, "__file__", None)
        and not inspect.isgeneratorfunction(fn)
        and not inspect.iscoroutinefunction(fn)
    )


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point so its calls feed ``recorder``."""
    wrappers: dict[FunctionType, Callable] = {}
    for module in _layer_modules():
        layer = layer_of(module.__name__)
        for name, value in list(vars(module).items()):
            if _wrappable(value, module, name):
                key = f"{module.__name__}.{name}"
                wrappers[value] = recorder.wrap(value, layer, key, coarse=name in COARSE)
                setattr(module, name, wrappers[value])
            elif isinstance(value, type) and value.__module__ == module.__name__:
                _wrap_class(recorder, value, module, layer)

    # Rebind names other modules imported with ``from … import`` and the
    # function values of module-level registry dicts.
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for name, value in list(vars(module).items()):
            if isinstance(value, FunctionType) and value in wrappers:
                setattr(module, name, wrappers[value])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if isinstance(item, FunctionType) and item in wrappers:
                        value[key] = wrappers[item]

    engine = sys.modules["repro.runner.engine"]
    engine.wait = recorder.wrap_wait(engine.wait)
    _track_metadata_systems(recorder)
    os.register_at_fork(after_in_child=recorder.after_fork)


def _wrap_class(recorder: Recorder, cls: type, module: Any, layer: str) -> None:
    for name, value in list(vars(cls).items()):
        wrap_as = None
        fn = value
        if isinstance(value, (staticmethod, classmethod)):
            wrap_as = type(value)
            fn = value.__func__
        if not _wrappable(fn, module, name):
            continue
        key = f"{module.__name__}.{cls.__qualname__}.{name}"
        wrapper = recorder.wrap(fn, layer, key, coarse=name in COARSE)
        try:
            setattr(cls, name, wrap_as(wrapper) if wrap_as else wrapper)
        except (AttributeError, TypeError):
            continue


def _track_metadata_systems(recorder: Recorder) -> None:
    """Keep each DeWrite ``MetadataSystem`` until its job ends, so the job's
    metadata-cache hits and misses can be read off its caches."""
    module = sys.modules.get("repro.core.dedup_engine")
    cls = getattr(module, "MetadataSystem", None)
    if cls is None:
        return
    init = cls.__init__

    @functools.wraps(init)
    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        recorder.metadata_systems.append(self)

    cls.__init__ = tracked
