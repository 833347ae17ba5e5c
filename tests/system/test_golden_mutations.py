"""The controller report goldens catch a lost or reordered metadata touch.

The metadata caches charge timing by replaying the ``(table, entry, op)``
triples the :class:`~repro.core.tables.DedupIndex` mutators append, in
order.  A refactor that drops a touch or swaps two would silently change
hit rates, writebacks and persistence traffic; these tests seed exactly
those two mutations into ``DedupIndex.apply_unique`` and check that the
DeWrite-family reports on ``sjeng`` then differ from the committed golden
(``fixtures/reports/sjeng.json``).  Only the DeWrite-family cases are
simulated: the other controllers never touch the dedup index.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.registry import build_controller
from repro.core.tables import DedupIndex
from repro.nvm.memory import NvmMainMemory
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate

from .test_controller_goldens import REPORT_ACCESSES, SEED, report_cases

GOLDEN = Path(__file__).parent / "fixtures" / "reports" / "sjeng.json"

PERSISTENCE_ARMS = {"dewrite[periodic]", "dewrite[tiny-cache]", "dewrite[write-through]"}
DEWRITE_FAMILY = {"dewrite", "direct", "parallel", "traditional-dedup"} | PERSISTENCE_ARMS

_original_apply_unique = DedupIndex.apply_unique


def _drop_fsm(self: DedupIndex, logical: int, crc: int, touches: list) -> int:
    """apply_unique without its trailing FSM triple."""
    dest = _original_apply_unique(self, logical, crc, touches)
    del touches[-3:]
    return dest


def _swap_inverted_hash_and_fsm(self: DedupIndex, logical: int, crc: int, touches: list) -> int:
    """apply_unique with its inverted-hash and FSM triples swapped."""
    dest = _original_apply_unique(self, logical, crc, touches)
    # The four trailing triples are inverted-hash, hash-table, address-map, FSM.
    touches[-12:-9], touches[-3:] = touches[-3:], touches[-12:-9]
    return dest


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


@pytest.mark.parametrize(
    ("mutation", "expected"),
    [(_drop_fsm, DEWRITE_FAMILY), (_swap_inverted_hash_and_fsm, PERSISTENCE_ARMS)],
    ids=["drop-fsm", "swap-inverted-hash-fsm"],
)
def test_mutated_touches_break_the_golden(monkeypatch, mutation, expected):
    monkeypatch.setattr(DedupIndex, "apply_unique", mutation)
    assert changed_cases() >= expected
