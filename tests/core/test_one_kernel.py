"""Every controller runs the one kernel of :mod:`repro.core.interface`.

The families supply only their request bodies
(:meth:`~repro.core.interface.MemoryController._request_bodies`); the merge
loop, the cursor and the latency accounting exist once.  A family that
grows its own loop again fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import repro
from repro.baselines.out_of_line import OutOfLinePageDedupController
from repro.core.interface import MemoryController
from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory

SRC = Path(repro.__file__).resolve().parent
SKELETON = MemoryController._service_stream


@pytest.mark.parametrize("name", sorted(available_controllers()))
def test_every_registered_controller_runs_the_skeleton(name):
    controller_type = type(build_controller(name, NvmMainMemory()))
    if controller_type is OutOfLinePageDedupController:
        # The slicing wrapper hands each slice to the skeleton.
        assert super(OutOfLinePageDedupController, controller_type)._service_stream is SKELETON
    else:
        assert controller_type._service_stream is SKELETON


def _references(name_set: frozenset[str]) -> set[tuple[str, str]]:
    """``(module path, enclosing function)`` of every reference to a name in
    ``name_set`` across ``src/repro``, imports excluded."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()

        def visit(node: ast.AST, scope: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, f"{scope}.{child.name}" if scope else child.name)
                    continue
                name = (
                    child.id if isinstance(child, ast.Name)
                    else child.attr if isinstance(child, ast.Attribute)
                    else None
                )
                if name in name_set:
                    found.add((relative, scope))
                visit(child, scope)

        visit(ast.parse(path.read_text(), str(path)), "")
    return found


def test_the_merge_heap_lives_in_the_skeleton_and_the_merge_module():
    assert {path for path, _ in _references(frozenset({"heappush", "heappop"}))} == {
        "core/interface.py",
        "core/batching.py",
    }


def test_only_the_skeleton_and_the_per_request_wrappers_call_merge_state():
    # Out-of-line slices the skeleton's calls; the crash simulator and the
    # invariant checker step the skeleton one merged request at a time.
    assert _references(frozenset({"merge_state"})) == {
        ("core/interface.py", "MemoryController._service_stream"),
        ("baselines/out_of_line.py", "OutOfLinePageDedupController._service_stream"),
        ("faults/crash.py", "CrashSimulator._step"),
        ("check/invariants.py", "CheckedController._service_stream"),
    }
