"""SIM104 — the three registries must stay mutually coherent.

The repo has three registries that grew in different PRs and reference
each other only by convention: the controller catalogue
(:mod:`repro.core.registry`), the fault-adapter dispatch
(:func:`repro.faults.adapters.adapter_for`), and the experiment registry
(:mod:`repro.analysis.registry` with its ``FIGURE_ALIASES`` indirection).
Nothing ties them together at import time — a controller registered
today is silently invisible to ``repro.faults`` until someone *runs* a
crash experiment against it, and a figure alias pointing at a renamed
experiment id only explodes when a user types ``python -m repro run
fig14``.  This rule closes the loop statically:

- every ``register_controller("name", builder)`` call must resolve — by
  following the builder through its (possibly lazily imported) call
  chain — to a concrete controller class, and that class must be

  * **adapter-covered**: it or an ancestor appears in an ``isinstance``
    arm of an indexed ``adapter_for`` dispatcher, and
  * **trace-instrumented**: some method in its MRO emits a ``.span(...)``
    or ``.event(...)`` call, so the observability stack sees it;

- every ``FIGURE_ALIASES`` value must name a registered experiment id
  (including ids registered from a module-level tuple literal via a
  ``for`` loop — the ``_COMPARISON_FIGURES`` idiom);

- no controller name or experiment id may be registered twice without
  ``replace=True``.

All extraction is conservative: a builder whose controller class cannot
be resolved statically, or a registration with a non-literal name, marks
that registry *open* and the affected cross-checks are skipped rather
than guessed at.  The checks only fire when the relevant surfaces are in
the lint target set, so single-module runs stay quiet.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING

from repro.check.index import ClassInfo, FunctionInfo, ModuleInfo, ProjectIndex, _dotted_name
from repro.check.rules import ProjectRule, Violation

if TYPE_CHECKING:
    from repro.check.lint import LintContext

#: How deep to follow builder → helper → controller-constructor chains.
_BUILDER_DEPTH = 6

#: Tracer surface: a method emitting any of these is instrumented.
_TRACE_METHODS = frozenset({"span", "event"})


class RegistryCoherenceRule(ProjectRule):
    """Controllers need adapters and tracing; figure aliases must resolve."""

    rule_id = "SIM104"
    summary = "registry entry lacks adapter/trace coverage or resolves nowhere"
    fixit = (
        "add an adapter_for isinstance arm (or tracer spans) for the new "
        "controller family, or point the alias at a registered experiment id"
    )

    def check_project(self, context: "LintContext") -> list[Violation]:
        index = context.project
        if index is None:
            return []
        violations: list[Violation] = []
        violations.extend(self._check_controllers(index))
        violations.extend(self._check_experiments(index))
        return violations

    # -- controller registry ------------------------------------------------

    def _check_controllers(self, index: ProjectIndex) -> list[Violation]:
        registrations = _registration_calls(index, "register_controller")
        if not registrations:
            return []
        covered = _adapter_covered_classes(index)
        violations: list[Violation] = []
        seen: dict[str, str] = {}

        for module, call in registrations:
            name = _literal_first_arg(call)
            if name is None:
                continue
            if name in seen and not _keyword_true(call, "replace"):
                violations.append(
                    self.violation(
                        module.path,
                        call,
                        f"controller {name!r} registered twice (first in "
                        f"{seen[name]}) without replace=True",
                    )
                )
                continue
            seen.setdefault(name, module.name)

            builder = _builder_qualname(call, module, index)
            controller = (
                self._controller_class(builder, index) if builder else None
            )
            if controller is None:
                continue  # unresolvable statically: stay quiet
            if covered is not None and not _is_covered(controller, covered, index):
                violations.append(
                    self.violation(
                        module.path,
                        call,
                        f"controller {name!r} builds {controller.qualname} which "
                        "no adapter_for isinstance arm covers: crash/recovery "
                        "experiments cannot run against it",
                    )
                )
            if not _emits_trace(controller, index):
                violations.append(
                    self.violation(
                        module.path,
                        call,
                        f"controller {name!r} builds {controller.qualname} whose "
                        "methods never emit tracer .span()/.event() calls: the "
                        "observability stack is blind to it",
                    )
                )
        return violations

    def _controller_class(
        self, builder: str | None, index: ProjectIndex, depth: int = 0
    ) -> ClassInfo | None:
        """The controller class a builder constructs, through helper calls."""
        if builder is None or depth > _BUILDER_DEPTH:
            return None
        function = index.functions.get(builder)
        if function is None:
            return None
        for site in function.calls:
            info = index.classes.get(site.callee) if site.callee else None
            if info is not None and _is_controller_class(info, index):
                return info
        for site in function.calls:
            if site.callee and site.callee != builder:
                found = self._controller_class(site.callee, index, depth + 1)
                if found is not None:
                    return found
        return None

    # -- experiment registry ------------------------------------------------

    def _check_experiments(self, index: ProjectIndex) -> list[Violation]:
        registrations = _registration_calls(index, "register_experiment")
        if not registrations:
            return []
        violations: list[Violation] = []
        ids: dict[str, str] = {}
        complete = True

        for module, call in registrations:
            loop_ids = _loop_bound_ids(module)
            for spec_id, anchor in _experiment_ids_of(call, loop_ids):
                if spec_id is None:
                    complete = False
                    continue
                if spec_id in ids and not _keyword_true(call, "replace"):
                    violations.append(
                        self.violation(
                            module.path,
                            anchor,
                            f"experiment {spec_id!r} registered twice (first in "
                            f"{ids[spec_id]}) without replace=True",
                        )
                    )
                    continue
                ids.setdefault(spec_id, module.name)

        if complete and ids:
            for module in index.modules.values():
                for target_node, alias, target in _figure_aliases(module):
                    if target not in ids:
                        violations.append(
                            self.violation(
                                module.path,
                                target_node,
                                f"FIGURE_ALIASES maps {alias!r} to {target!r}, "
                                "which is not a registered experiment id",
                            )
                        )
        return violations


# ---------------------------------------------------------------------------
# extraction helpers
# ---------------------------------------------------------------------------


def _registration_calls(
    index: ProjectIndex, api: str
) -> list[tuple[ModuleInfo, ast.Call]]:
    """Every ``<api>(...)`` call in any indexed module, in index order."""
    found: list[tuple[ModuleInfo, ast.Call]] = []
    for name in sorted(index.modules):
        module = index.modules[name]
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted_name(node.func)
            if dotted is None:
                continue
            resolved = index.resolve_name(dotted, module) or dotted
            if resolved == api or resolved.endswith(f".{api}"):
                found.append((module, node))
    return found


def _literal_first_arg(call: ast.Call) -> str | None:
    if call.args and isinstance(call.args[0], ast.Constant):
        value = call.args[0].value
        if isinstance(value, str):
            return value
    for keyword in call.keywords:
        if keyword.arg == "name" and isinstance(keyword.value, ast.Constant):
            if isinstance(keyword.value.value, str):
                return keyword.value.value
    return None


def _keyword_true(call: ast.Call, name: str) -> bool:
    return any(
        keyword.arg == name
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is True
        for keyword in call.keywords
    )


def _builder_qualname(
    call: ast.Call, module: ModuleInfo, index: ProjectIndex
) -> str | None:
    """Resolved qualname of the builder argument of ``register_controller``."""
    builder_expr: ast.expr | None = call.args[1] if len(call.args) > 1 else None
    if builder_expr is None:
        for keyword in call.keywords:
            if keyword.arg == "builder":
                builder_expr = keyword.value
    if builder_expr is None:
        return None
    dotted = _dotted_name(builder_expr)
    if dotted is None:
        return None
    return index.resolve_name(dotted, module)


def _is_controller_class(info: ClassInfo, index: ProjectIndex) -> bool:
    """Whether a class is (or descends from) the MemoryController interface."""
    if info.name == "MemoryController":
        return True
    return any(
        ancestor.name == "MemoryController" for ancestor in index.ancestors(info)
    )


def _adapter_covered_classes(index: ProjectIndex) -> set[str] | None:
    """Class qualnames named by isinstance arms of ``adapter_for``.

    ``None`` when no ``adapter_for`` dispatcher is indexed — coverage
    cannot be judged, so the check is skipped.
    """
    dispatchers = [
        function
        for qualname, function in sorted(index.functions.items())
        if function.name == "adapter_for"
    ]
    if not dispatchers:
        return None
    covered: set[str] = set()
    for function in dispatchers:
        module = index.modules[function.module]
        for node in ast.walk(function.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance"
                and len(node.args) == 2
            ):
                continue
            types = node.args[1]
            type_exprs = types.elts if isinstance(types, ast.Tuple) else [types]
            for expr in type_exprs:
                dotted = _dotted_name(expr)
                if dotted is None:
                    continue
                resolved = index.resolve_name(dotted, module) or dotted
                covered.add(resolved)
    return covered


def _is_covered(info: ClassInfo, covered: set[str], index: ProjectIndex) -> bool:
    if info.qualname in covered:
        return True
    return any(ancestor.qualname in covered for ancestor in index.ancestors(info))


def _emits_trace(info: ClassInfo, index: ProjectIndex) -> bool:
    """Whether any method in the class's MRO emits a span/event call."""
    for owner in (info, *index.ancestors(info)):
        for method in owner.methods.values():
            for node in ast.walk(method.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _TRACE_METHODS
                ):
                    return True
    return False


def _loop_bound_ids(module: ModuleInfo) -> dict[str, list[str]]:
    """Loop variable → experiment ids, for the ``_COMPARISON_FIGURES`` idiom.

    Matches ``for <tuple-target> in <NAME>:`` at module level where
    ``<NAME>`` is a module-level tuple/list of tuple literals; the loop
    variable's position selects which element of each row is the id.
    """
    literals: dict[str, list[ast.expr]] = {}
    for node in module.tree.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, (ast.Tuple, ast.List))
            and all(isinstance(row, (ast.Tuple, ast.List)) for row in node.value.elts)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    literals[target.id] = list(node.value.elts)

    bound: dict[str, list[str]] = {}
    for node in module.tree.body:
        if not (isinstance(node, ast.For) and isinstance(node.iter, ast.Name)):
            continue
        rows = literals.get(node.iter.id)
        if rows is None:
            continue
        targets = (
            node.target.elts if isinstance(node.target, ast.Tuple) else [node.target]
        )
        for position, target in enumerate(targets):
            if not isinstance(target, ast.Name):
                continue
            values: list[str] = []
            for row in rows:
                elts = row.elts if isinstance(row, (ast.Tuple, ast.List)) else []
                if position < len(elts) and isinstance(elts[position], ast.Constant):
                    value = elts[position].value
                    if isinstance(value, str):
                        values.append(value)
            if values:
                bound[target.id] = values
    return bound


def _experiment_ids_of(
    call: ast.Call, loop_ids: dict[str, list[str]]
) -> list[tuple[str | None, ast.AST]]:
    """The experiment id(s) one ``register_experiment(...)`` call binds.

    ``(None, node)`` marks a registration whose id is not statically
    known, which switches the alias cross-check off.
    """
    spec = call.args[0] if call.args else None
    if not isinstance(spec, ast.Call):
        return [(None, call)]
    id_expr: ast.expr | None = spec.args[0] if spec.args else None
    for keyword in spec.keywords:
        if keyword.arg == "id":
            id_expr = keyword.value
    if isinstance(id_expr, ast.Constant) and isinstance(id_expr.value, str):
        return [(id_expr.value, id_expr)]
    if isinstance(id_expr, ast.Name) and id_expr.id in loop_ids:
        return [(value, id_expr) for value in loop_ids[id_expr.id]]
    return [(None, call)]


def _figure_aliases(module: ModuleInfo) -> list[tuple[ast.AST, str, str]]:
    """``(value-node, alias, target)`` rows of a FIGURE_ALIASES dict literal."""
    rows: list[tuple[ast.AST, str, str]] = []
    for node in module.tree.body:
        targets: list[ast.expr]
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == "FIGURE_ALIASES"
            for target in targets
        ):
            continue
        if not isinstance(value, ast.Dict):
            continue
        for key, val in zip(value.keys, value.values):
            if (
                isinstance(key, ast.Constant)
                and isinstance(key.value, str)
                and isinstance(val, ast.Constant)
                and isinstance(val.value, str)
            ):
                rows.append((val, key.value, val.value))
    return rows
