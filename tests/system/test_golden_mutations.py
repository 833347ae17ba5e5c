"""The controller report goldens catch a lost or reordered metadata touch.

DeWrite's write body charges a unique write's metadata touches in the
order the :class:`~repro.core.tables.DedupIndex` mutators would append
their ``(table, entry, op)`` triples: inline through the caches' hit and
insert arms when every block is resident, else as that flat triple list
through ``MetadataSystem.replay``.  A refactor that drops a touch or swaps
two would silently change hit rates, writebacks and persistence traffic;
these tests seed exactly those two mutations into both forms of the
unique write's touches, by rewriting the source of
``DeWriteController._request_bodies``, and check that the DeWrite-family
reports on ``sjeng`` then differ from the committed golden
(``fixtures/reports/sjeng.json``).  Only the DeWrite-family cases are
simulated: the other controllers never touch the dedup index.
"""

from __future__ import annotations

import inspect
import json
import re
import textwrap
from pathlib import Path

import pytest

from repro.core import dewrite
from repro.core.dewrite import DeWriteController
from repro.core.registry import build_controller
from repro.nvm.memory import NvmMainMemory
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate

from .test_controller_goldens import REPORT_ACCESSES, SEED, report_cases

GOLDEN = Path(__file__).parent / "fixtures" / "reports" / "sjeng.json"

PERSISTENCE_ARMS = {"dewrite[periodic]", "dewrite[tiny-cache]", "dewrite[write-through]"}
DEWRITE_FAMILY = {"dewrite", "direct", "parallel", "traditional-dedup"} | PERSISTENCE_ARMS

BODY_SOURCE = textwrap.dedent(inspect.getsource(DeWriteController._request_bodies))


def _find_once(pattern: str) -> str:
    """The one stretch of the write body's source that ``pattern`` matches."""
    matches = [m.group(0) for m in re.finditer(pattern, BODY_SOURCE, flags=re.MULTILINE)]
    assert len(matches) == 1, (pattern, len(matches))
    return matches[0]


def _hit_arm(cache: str, block: str, table: str, entry: str) -> str:
    """The unique write's inline hit arm for one dirtying touch."""
    lines = [
        f"{cache}_cache.hits += 1",
        f"{cache}_blocks.move_to_end({block})",
        f"{cache}_blocks[{block}] = True",
        "if timeline_on:",
        "    timeline.record_metadata(complete, hit=True)",
        "if persistence:",
        f'    enforce_persistence("{table}", {entry}, complete)',
    ]
    return _find_once(
        r"^( *)" + re.escape(lines[0]) + "".join(r"\n\1" + re.escape(line) for line in lines[1:])
        + r"\n"
    )


def _triple_line(table: str, entry: str) -> str:
    """The unique write's line of the fallback triple list for one touch."""
    return _find_once(r"^ *" + re.escape(f'"{table}", {entry}, WRITE,') + r"\n")


def _matches_once(source: str, text: str) -> str:
    assert source.count(text) == 1, text
    return text


def _drop_fsm(source: str) -> str:
    """The unique write without its FSM touch, inline and in the triple list."""
    for text in (_hit_arm("fsm", "fsm_dest", "fsm", "dest"), _triple_line("fsm", "dest")):
        source = source.replace(_matches_once(source, text), "")
    return source


def _swap_inverted_hash_and_fsm(source: str) -> str:
    """The unique write with its inverted-hash and FSM touches swapped."""
    pairs = [
        (
            _hit_arm("ih", "ih_dest", "inverted_hash", "dest"),
            _hit_arm("fsm", "fsm_dest", "fsm", "dest"),
        ),
        (_triple_line("inverted_hash", "dest"), _triple_line("fsm", "dest")),
    ]
    for first, second in pairs:
        placeholder = "\0"
        source = source.replace(_matches_once(source, first), placeholder)
        source = source.replace(_matches_once(source, second), first)
        source = source.replace(placeholder, second)
    return source


def _identity(source: str) -> str:
    return source


def install_body(monkeypatch, rewrite) -> None:
    """Compile the rewritten write body in :mod:`repro.core.dewrite`'s
    namespace and make it DeWrite's ``_request_bodies``."""
    source = rewrite(BODY_SOURCE)
    if rewrite is not _identity:
        assert source != BODY_SOURCE
    namespace = dict(vars(dewrite))
    exec(compile(source, dewrite.__file__, "exec"), namespace)
    monkeypatch.setattr(DeWriteController, "_request_bodies", namespace["_request_bodies"])


def changed_cases() -> set[str]:
    """DeWrite-family cases whose sjeng report differs from the golden."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    trace = trace_for("sjeng", REPORT_ACCESSES, SEED)
    cases = report_cases()
    changed = set()
    for case in sorted(DEWRITE_FAMILY):
        name, opts = cases[case]
        report = simulate(build_controller(name, NvmMainMemory(), **opts), trace).to_dict()
        if json.loads(json.dumps(report)) != golden[case]:
            changed.add(case)
    return changed


def test_recompiled_body_matches_the_golden(monkeypatch):
    # The rewriting itself changes nothing: only a seeded mutation can.
    install_body(monkeypatch, _identity)
    assert changed_cases() == set()


@pytest.mark.parametrize(
    ("mutation", "expected"),
    [(_drop_fsm, DEWRITE_FAMILY), (_swap_inverted_hash_and_fsm, PERSISTENCE_ARMS)],
    ids=["drop-fsm", "swap-inverted-hash-fsm"],
)
def test_mutated_touches_break_the_golden(monkeypatch, mutation, expected):
    install_body(monkeypatch, mutation)
    assert changed_cases() >= expected
