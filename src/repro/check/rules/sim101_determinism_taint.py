"""SIM101 — nondeterminism must not flow into results, caches or snapshots.

Every headline claim of this reproduction — byte-identical serial vs
parallel runs, warm-cache reruns that ``repro diff`` clean, recovery
replay matching the durability journal — reduces to one property: nothing
host-dependent may reach a *determinism sink*.  The per-file SIM001/SIM002
rules catch sources in the timed core; this whole-program rule follows
them through the approximate call graph into the places where they would
actually corrupt a result:

**Sources** (facts about one function body):

- wall clock: ``time.time/perf_counter/monotonic/process_time`` (and the
  ``_ns`` variants), ``datetime.now/utcnow/today``;
- unseeded randomness: module-level ``random.*`` calls, ``random.Random()``
  with no seed, ``random.SystemRandom``, ``uuid.uuid1/uuid4``,
  ``secrets.*``, ``os.urandom``;
- host environment: any use of ``os.environ`` / ``os.getenv``;
- filesystem order: ``os.listdir/walk/scandir`` and ``.iterdir()`` /
  ``.glob()`` / ``.rglob()`` calls not immediately wrapped in
  ``sorted(...)``;
- set-iteration order: ``for``/comprehension iteration over a set
  literal, set comprehension or ``set(...)`` call not wrapped in
  ``sorted(...)``.

**Sinks** (functions whose output must be deterministic):

- any ``to_dict`` method (the serialisation surface the result cache,
  worker transport and run manifests consume);
- any function constructing a ``SimulationReport``;
- cache-key makers: functions named ``job_key``/``identity`` or whose
  name contains ``fingerprint`` or ``cache_key``.

Taint propagates caller-inherits-from-callee through resolved call edges
and, for unresolvable ``<expr>.meth()`` calls, through name-based method
edges.  :data:`BARRIER_MODULES` (the trace bus, the live event bus, the
cross-run ledger, and their watch/chrome consumers) are the sanctioned
wall-clock consumers: their wall-time spans and record timestamps are
segregated from simulated results by the runtime diff gates (PR 4; the
``events.*`` counters and ledger provenance stamps are environment
metadata, never sim state), so taint neither originates in nor
propagates through them.  The violation message reconstructs the
call chain from sink to source so the report reads as a data-flow
explanation, not a bare location.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.check.index import FunctionInfo, ProjectIndex, _dotted_name
from repro.check.rules import ProjectRule, Violation

if TYPE_CHECKING:
    from repro.check.lint import LintContext

#: Modules whose wall-clock use is sanctioned and never escapes into
#: simulated results (enforced at runtime by the `repro diff` gates).
BARRIER_MODULES = frozenset(
    {
        "repro.obs.trace",
        "repro.obs.events",
        "repro.obs.ledger",
        "repro.obs.watch",
        "repro.obs.chrome",
    }
)

#: Resolved call targets that read the host clock or entropy.
SOURCE_CALLS = {
    "time.time": "wall clock time.time()",
    "time.time_ns": "wall clock time.time_ns()",
    "time.perf_counter": "wall clock time.perf_counter()",
    "time.perf_counter_ns": "wall clock time.perf_counter_ns()",
    "time.monotonic": "wall clock time.monotonic()",
    "time.monotonic_ns": "wall clock time.monotonic_ns()",
    "time.process_time": "wall clock time.process_time()",
    "time.process_time_ns": "wall clock time.process_time_ns()",
    "datetime.datetime.now": "wall clock datetime.now()",
    "datetime.datetime.utcnow": "wall clock datetime.utcnow()",
    "datetime.date.today": "wall clock date.today()",
    "uuid.uuid1": "host-dependent uuid.uuid1()",
    "uuid.uuid4": "entropy-backed uuid.uuid4()",
    "os.urandom": "entropy-backed os.urandom()",
    "os.getenv": "host environment os.getenv()",
    "os.listdir": "filesystem-order os.listdir()",
    "os.walk": "filesystem-order os.walk()",
    "os.scandir": "filesystem-order os.scandir()",
}

#: ``.attr()`` calls that surface directory entries in filesystem order.
FS_ORDER_METHODS = frozenset({"iterdir", "glob", "rglob"})


@dataclass(frozen=True)
class _Taint:
    """Why one function is nondeterministic, with the path to the source."""

    source: str          # human description of the root source
    source_loc: str      # "module:line" of the root source
    chain: tuple[str, ...]  # function qualnames from this function to the root

    def describe(self) -> str:
        via = " -> ".join(self.chain)
        text = f"{self.source} at {self.source_loc}"
        return f"{text} (via {via})" if via else text


class DeterminismTaintRule(ProjectRule):
    """Wall-clock/entropy/env/order sources must not reach result sinks."""

    rule_id = "SIM101"
    summary = "nondeterministic source reaches a result/cache/serialisation sink"
    fixit = (
        "derive the value from simulated time, an explicit seed or sorted "
        "iteration, or keep host-dependent data out of to_dict payloads, "
        "SimulationReports and cache keys"
    )

    def check_project(self, context: "LintContext") -> list[Violation]:
        index = context.project
        if index is None:
            return []
        taints = self._propagate(index, self._direct_taints(index))
        violations: list[Violation] = []
        for function in index.functions.values():
            if not self._is_sink(function):
                continue
            taint = taints.get(function.qualname)
            if taint is None:
                continue
            violations.append(
                self.violation(
                    function.path,
                    function.node,
                    f"{self._sink_label(function)} depends on {taint.describe()}",
                )
            )
        return violations

    # -- sinks --------------------------------------------------------------

    @staticmethod
    def _is_sink(function: FunctionInfo) -> bool:
        name = function.name
        if name == "to_dict" and function.is_method:
            return True
        if name in ("job_key", "identity") or "fingerprint" in name or "cache_key" in name:
            return True
        return any(
            site.callee.rsplit(".", 1)[-1] == "SimulationReport"
            for site in function.calls
            if site.callee
        )

    @staticmethod
    def _sink_label(function: FunctionInfo) -> str:
        if function.name == "to_dict" and function.is_method:
            return f"serialisation sink {function.qualname}"
        if any(
            site.callee.rsplit(".", 1)[-1] == "SimulationReport"
            for site in function.calls
            if site.callee
        ):
            return f"SimulationReport builder {function.qualname}"
        return f"cache-key sink {function.qualname}"

    # -- sources ------------------------------------------------------------

    def _direct_taints(self, index: ProjectIndex) -> dict[str, _Taint]:
        taints: dict[str, _Taint] = {}
        for function in index.functions.values():
            if function.module in BARRIER_MODULES:
                continue
            found = self._sources_in(function, index)
            if found:
                description, line = found[0]
                taints[function.qualname] = _Taint(
                    source=description,
                    source_loc=f"{function.module}:{line}",
                    chain=(),
                )
        return taints

    def _sources_in(
        self, function: FunctionInfo, index: ProjectIndex
    ) -> list[tuple[str, int]]:
        module = index.modules[function.module]
        sorted_args = _sorted_call_arguments(function.node)
        sources: list[tuple[str, int]] = []

        for node in ast.walk(function.node):
            if isinstance(node, ast.Call):
                resolved = index.resolve_call(node, module)
                if resolved in SOURCE_CALLS:
                    sources.append((SOURCE_CALLS[resolved], node.lineno))
                elif resolved is not None and resolved.startswith("random."):
                    if resolved == "random.Random" and node.args:
                        pass  # explicitly seeded: the sanctioned pattern
                    elif resolved == "random.SystemRandom":
                        sources.append(("OS-entropy random.SystemRandom", node.lineno))
                    elif resolved == "random.Random":
                        sources.append(("unseeded random.Random()", node.lineno))
                    else:
                        sources.append(
                            (f"module-level {resolved}() (hidden global seed)", node.lineno)
                        )
                elif resolved is not None and resolved.startswith("secrets."):
                    sources.append((f"entropy-backed {resolved}()", node.lineno))
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in FS_ORDER_METHODS
                    and id(node) not in sorted_args
                ):
                    sources.append(
                        (f"filesystem-order .{node.func.attr}() without sorted()", node.lineno)
                    )
            elif isinstance(node, ast.Attribute):
                dotted = _dotted_name(node)
                if dotted is not None and index.resolve_name(dotted, module) == "os.environ":
                    sources.append(("host environment os.environ", node.lineno))
            elif isinstance(node, (ast.For, ast.comprehension)):
                iterable = node.iter
                if _is_set_expression(iterable) and id(iterable) not in sorted_args:
                    sources.append(
                        ("set-iteration order without sorted()", getattr(node, "lineno", getattr(iterable, "lineno", 1)))
                    )
        return sources

    # -- propagation --------------------------------------------------------

    def _propagate(
        self, index: ProjectIndex, roots: dict[str, _Taint]
    ) -> dict[str, _Taint]:
        """Caller-inherits-from-callee closure over the call graph."""
        callers: dict[str, set[str]] = {}
        for function in index.functions.values():
            if function.module in BARRIER_MODULES:
                continue
            for site in function.calls:
                if site.callee:
                    if site.callee in index.functions:
                        callers.setdefault(site.callee, set()).add(function.qualname)
                else:
                    for method in index.methods_named(site.method):
                        if method.module in BARRIER_MODULES:
                            continue
                        callers.setdefault(method.qualname, set()).add(function.qualname)

        taints = dict(roots)
        frontier = sorted(roots)
        while frontier:
            callee = frontier.pop()
            taint = taints[callee]
            for caller in sorted(callers.get(callee, ())):
                if caller in taints:
                    continue
                taints[caller] = _Taint(
                    source=taint.source,
                    source_loc=taint.source_loc,
                    chain=(callee, *taint.chain),
                )
                frontier.append(caller)
        return taints


def _sorted_call_arguments(root: ast.AST) -> set[int]:
    """``id()`` of every expression whose order ``sorted(...)`` normalises.

    Covers direct arguments and, for comprehension arguments
    (``sorted(x for x in some_set)``), the comprehension iterables — the
    unordered source is consumed entirely inside the sort.
    """
    ids: set[int] = set()
    for node in ast.walk(root):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
        ):
            for arg in node.args:
                ids.add(id(arg))
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
                    for generator in arg.generators:
                        ids.add(id(generator.iter))
    return ids


def _is_set_expression(expr: ast.expr) -> bool:
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(expr, ast.Call)
        and isinstance(expr.func, ast.Name)
        and expr.func.id == "set"
    )
