"""Post-recovery consistency auditing against the replay oracle.

The auditor holds the one piece of ground truth the simulated system never
sees: every pre-crash write, logged per crash segment by a
:class:`~repro.workloads.oracle.ReplayOracle`.  After recovery it asks the
controller's fault adapter, in one
:meth:`~repro.faults.adapters.ControllerFaultAdapter.recovered_lines`
call, what plaintext the rebuilt system serves for every line the
workload ever wrote, and classifies the answers in one oracle pass:

- **intact** — equals the line's latest pre-crash content;
- **stale**  — equals an *earlier* version of that line (decryptable but
  rolled back: the newer mapping/counter update missed the durability
  horizon);
- **lost**   — neither: garbage from a lost counter, a broken dedup
  reference, or an injected cell fault.

``intact + stale + lost == total`` always (every written line gets exactly
one verdict); :meth:`ConsistencyReport.verify` asserts it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.faults.adapters import ControllerFaultAdapter
from repro.faults.journal import DurableState
from repro.workloads.oracle import ReplayOracle

#: Example addresses kept per verdict in the machine-readable report.
EXAMPLE_CAP = 8


@dataclass(frozen=True)
class ConsistencyReport:
    """Machine-readable verdict over every line the workload wrote."""

    total_lines: int
    intact: int
    stale: int
    lost: int
    stale_examples: tuple[int, ...] = ()
    lost_examples: tuple[int, ...] = ()

    def verify(self) -> None:
        """Assert the verdicts partition the audited universe."""
        if self.intact + self.stale + self.lost != self.total_lines:
            raise ValueError(
                f"verdicts do not partition the universe: "
                f"{self.intact} + {self.stale} + {self.lost} != {self.total_lines}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            "total_lines": self.total_lines,
            "intact": self.intact,
            "stale": self.stale,
            "lost": self.lost,
            "stale_examples": list(self.stale_examples),
            "lost_examples": list(self.lost_examples),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ConsistencyReport":
        report = cls(
            total_lines=int(payload["total_lines"]),
            intact=int(payload["intact"]),
            stale=int(payload["stale"]),
            lost=int(payload["lost"]),
            stale_examples=tuple(int(a) for a in payload.get("stale_examples", ())),
            lost_examples=tuple(int(a) for a in payload.get("lost_examples", ())),
        )
        report.verify()
        return report


class ConsistencyAuditor:
    """Compares the recovered system's view against the replay oracle."""

    def __init__(self, oracle: ReplayOracle, adapter: ControllerFaultAdapter) -> None:
        self.oracle = oracle
        self.adapter = adapter

    def audit(self, durable: DurableState) -> ConsistencyReport:
        """Classify every written line under the recovered metadata image."""
        addresses = self.oracle.written_addresses()
        recovered = self.adapter.recovered_lines(durable, addresses)
        stale, lost = self.oracle.classify_lines(addresses, recovered)
        report = ConsistencyReport(
            total_lines=len(addresses),
            intact=len(addresses) - len(stale) - len(lost),
            stale=len(stale),
            lost=len(lost),
            stale_examples=tuple(stale[:EXAMPLE_CAP]),
            lost_examples=tuple(lost[:EXAMPLE_CAP]),
        )
        report.verify()
        return report
