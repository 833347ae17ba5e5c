"""Cross-run observability ledger and the commit-trajectory trend report.

PRs 3–8 made each *single* run observable (manifests, bench records,
stage histograms); this module is the longitudinal half.  A
:class:`Ledger` is an append-only, deterministic index over every
manifest and bench record it has been fed (``repro ledger add/ls``), and
:func:`compute_trend` turns the indexed bench anchors into a per-case
time series across commits — reusing :func:`repro.obs.bench
.compare_records`' stage blaming to attribute any step regression to the
kernel stage whose simulated cost moved.

Design contract:

- **idempotent append** — an entry's identity is the content hash of its
  deterministic summary, so re-adding the same record file (or the same
  record from two checkouts) is a no-op.  Pinned by a hypothesis
  property in ``tests/obs/test_ledger.py``;
- **deterministic order** — :meth:`Ledger.entries` sorts by
  ``(created_unix_s, entry_id)`` whatever the insertion order, so two
  ledgers fed the same records in any order serialise byte-identically
  (the merge-determinism property);
- entries store *summaries*, not raw payloads: enough for ``trend`` to
  re-run the bench gate (``results``/``stages``/``scale``) without the
  ledger growing with the job count of every indexed run;
- like :mod:`repro.obs.events`, this module is a SIM101 determinism
  barrier: record timestamps are provenance, and nothing here may flow
  back into simulation state.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable

from repro.obs.bench import (
    ABSOLUTE_FLOOR_S,
    BENCH_KIND,
    compare_records,
    format_case_delta,
    validate_record,
)
from repro.obs.drift import relative_change, verdict
from repro.obs.manifest import MANIFEST_KIND, summarize_manifest, validate_manifest

#: Bump when the ledger file shape changes.
LEDGER_SCHEMA_VERSION = 1

#: Marker distinguishing ledger files from other JSON lying around.
LEDGER_KIND = "repro-ledger"

#: Record kinds a ledger indexes, mapped from their payload ``kind``.
RECORD_KINDS = {BENCH_KIND: "bench", MANIFEST_KIND: "manifest"}


class LedgerError(ValueError):
    """Raised when a ledger file or fed record fails validation."""


def _canonical(payload: Any) -> str:
    """Sorted-compact JSON — the hashing form shared by every entry."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class LedgerEntry:
    """One indexed record: provenance plus a trend-sufficient summary."""

    entry_id: str
    record_kind: str
    git_sha: str | None
    created_unix_s: float
    source: str
    summary: dict[str, Any]

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped form (ledger file ``entries`` element)."""
        return {
            "entry_id": self.entry_id,
            "record_kind": self.record_kind,
            "git_sha": self.git_sha,
            "created_unix_s": self.created_unix_s,
            "source": self.source,
            "summary": self.summary,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "LedgerEntry":
        """Rebuild one entry from :meth:`to_dict` output."""
        return cls(
            entry_id=str(payload["entry_id"]),
            record_kind=str(payload["record_kind"]),
            git_sha=payload["git_sha"],
            created_unix_s=float(payload["created_unix_s"]),
            source=str(payload["source"]),
            summary=dict(payload["summary"]),
        )


def entry_for(payload: dict[str, Any], *, source: str = "") -> LedgerEntry:
    """Classify and summarise one record payload into a ledger entry.

    ``payload`` must be a valid bench record or run manifest (its ``kind``
    field dispatches); anything else raises :class:`LedgerError`.
    ``source`` is a human hint (usually the file path it came from) and is
    **not** part of the entry identity — the same record added from two
    paths still deduplicates.
    """
    kind = RECORD_KINDS.get(payload.get("kind") if isinstance(payload, dict) else None)
    if kind is None:
        known = ", ".join(sorted(RECORD_KINDS))
        raise LedgerError(f"record kind must be one of {known}; cannot index this file")
    if kind == "bench":
        problems = validate_record(payload)
        if problems:
            raise LedgerError("bench record failed validation: " + "; ".join(problems))
        summary: dict[str, Any] = {
            "scale": payload.get("scale", {}),
            "results": payload.get("results", {}),
        }
        if isinstance(payload.get("stages"), dict):
            summary["stages"] = payload["stages"]
    else:
        problems = validate_manifest(payload)
        if problems:
            raise LedgerError("manifest failed validation: " + "; ".join(problems))
        digest = summarize_manifest(payload)
        summary = {
            "figures": digest["figures"],
            "settings": digest["settings"],
            "jobs": digest["jobs"],
            "cache": digest["cache"],
            "failures": digest["failures"],
            "elapsed_s": digest["elapsed_s"],
            "metrics": digest["metrics"],
        }
    git_sha = payload.get("git_sha")
    created_unix_s = float(payload.get("created_unix_s", 0.0))
    identity = _canonical(
        {
            "record_kind": kind,
            "git_sha": git_sha,
            "created_unix_s": created_unix_s,
            "summary": summary,
        }
    )
    return LedgerEntry(
        entry_id=hashlib.sha256(identity.encode("utf-8")).hexdigest()[:16],
        record_kind=kind,
        git_sha=git_sha,
        created_unix_s=created_unix_s,
        source=source,
        summary=summary,
    )


class Ledger:
    """Append-only deterministic index over bench records and manifests."""

    def __init__(self) -> None:
        self._entries: dict[str, LedgerEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, entry: LedgerEntry) -> bool:
        """Index one entry; returns False when it was already present."""
        if entry.entry_id in self._entries:
            return False
        self._entries[entry.entry_id] = entry
        return True

    def add_record(self, payload: dict[str, Any], *, source: str = "") -> bool:
        """Classify, summarise and index one record payload."""
        return self.add(entry_for(payload, source=source))

    def entries(self, *, record_kind: str | None = None) -> list[LedgerEntry]:
        """Indexed entries, oldest first (ties broken by entry id)."""
        selected = (
            entry
            for entry in self._entries.values()
            if record_kind is None or entry.record_kind == record_kind
        )
        return sorted(selected, key=lambda entry: (entry.created_unix_s, entry.entry_id))

    def merge(self, other: "Ledger") -> None:
        """Fold another ledger in (idempotent, order-independent)."""
        for entry in other._entries.values():
            self.add(entry)

    # -- serialisation -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-shaped form: entries in deterministic order."""
        return {
            "schema": LEDGER_SCHEMA_VERSION,
            "kind": LEDGER_KIND,
            "entries": [entry.to_dict() for entry in self.entries()],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "Ledger":
        """Rebuild a ledger from :meth:`to_dict` output."""
        if payload.get("schema") != LEDGER_SCHEMA_VERSION:
            raise LedgerError(
                f"ledger schema must be {LEDGER_SCHEMA_VERSION}, "
                f"got {payload.get('schema')!r}"
            )
        if payload.get("kind") != LEDGER_KIND:
            raise LedgerError(
                f"ledger kind must be {LEDGER_KIND!r}, got {payload.get('kind')!r}"
            )
        ledger = cls()
        entries = payload.get("entries")
        if not isinstance(entries, list):
            raise LedgerError("ledger 'entries' must be a list")
        for element in entries:
            ledger.add(LedgerEntry.from_dict(element))
        return ledger

    @classmethod
    def load(cls, path: str | Path) -> "Ledger":
        """Read one ledger file; raises :class:`LedgerError` when invalid."""
        try:
            payload = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as error:
            raise LedgerError(f"cannot read ledger {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise LedgerError(f"ledger {path} is not valid JSON: {error}") from error
        return cls.from_dict(payload)

    def dump(self, path: str | Path) -> Path:
        """Atomically write the ledger (temp file + rename)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        handle = tempfile.NamedTemporaryFile(
            mode="w", dir=target.parent, suffix=".tmp", delete=False, encoding="utf-8"
        )
        try:
            with handle:
                json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(handle.name, target)
        except BaseException:
            try:
                os.unlink(handle.name)
            except OSError:
                pass
            raise
        return target


def ledger_from_records(
    payloads: Iterable[tuple[dict[str, Any], str]],
) -> Ledger:
    """Build an ephemeral ledger from ``(payload, source)`` pairs."""
    ledger = Ledger()
    for payload, source in payloads:
        ledger.add_record(payload, source=source)
    return ledger


@dataclass(frozen=True)
class TrendReport:
    """Per-case trajectory across the indexed bench anchors."""

    threshold: float
    points: int
    #: One row per case: name, points, first/last best seconds, net
    #: relative change, verdict ("improved"/"regressed"/"flat").
    cases: list[dict[str, Any]]
    #: One entry per adjacent anchor pair that regressed: from/to shas
    #: plus the offending case deltas and their stage attribution notes.
    steps: list[dict[str, Any]]

    @property
    def ok(self) -> bool:
        """True when no adjacent-anchor step regressed beyond threshold."""
        return not self.steps

    def to_dict(self) -> dict[str, Any]:
        """JSON form for ``repro trend --json`` and the CI artifact."""
        return {
            "threshold": self.threshold,
            "points": self.points,
            "cases": self.cases,
            "steps": self.steps,
            "ok": self.ok,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TrendReport":
        """Rebuild a report from :meth:`to_dict` output.

        ``ok`` rides along in the payload for consumers that only read
        JSON, but it is derived state: the rebuilt report recomputes it
        from ``steps`` rather than trusting the stored copy.
        """
        payload.get("ok")
        return cls(
            threshold=float(payload["threshold"]),
            points=int(payload["points"]),
            cases=list(payload["cases"]),
            steps=list(payload["steps"]),
        )

    def render(self) -> str:
        """Human-readable trajectory table plus step-regression flags."""
        lines = [
            f"trend: {self.points} bench anchor(s), threshold {self.threshold:+.0%}, "
            f"{len(self.steps)} step regression(s)"
        ]
        if self.points < 2:
            lines.append("  (need at least two anchors for a trajectory)")
            return "\n".join(lines)
        name_width = max((len(row["name"]) for row in self.cases), default=4)
        header = (
            f"  {'case'.ljust(name_width)}  pts  first(ms)   last(ms)      net  verdict"
        )
        lines.append(header)
        for row in self.cases:
            lines.append(
                f"  {row['name'].ljust(name_width)}  {row['points']:>3}  "
                f"{row['first_s'] * 1000:>9.3f}  {row['last_s'] * 1000:>9.3f}  "
                f"{row['change']:>+7.1%}  {row['verdict']}"
            )
        for step in self.steps:
            lines.append(
                f"  STEP REGRESSION {step['from_sha'] or '?'} -> {step['to_sha'] or '?'}:"
            )
            lines.extend(f"    {format_case_delta(entry)}" for entry in step["regressions"])
            for note in step["stage_notes"]:
                lines.append(f"    stage: {note}")
        return "\n".join(lines)


def compute_trend(
    entries: Iterable[LedgerEntry],
    *,
    threshold: float = 0.30,
    absolute_floor_s: float = ABSOLUTE_FLOOR_S,
) -> TrendReport:
    """Trajectory over the bench entries of a ledger, oldest to newest.

    Each adjacent anchor pair is gated with :func:`compare_records`
    (which supplies the stage drift attribution); a pair that regresses
    becomes a flagged *step*.  The per-case rows give first vs last anchor
    the same verdict (:func:`repro.obs.drift.verdict`, with ``"within"``
    shown as ``flat``), so a case that regressed and then recovered shows
    ``flat`` in the table while the offending step is still flagged.
    """
    anchors = [entry for entry in entries if entry.record_kind == "bench"]
    points = len(anchors)
    series: dict[str, list[float]] = {}
    for entry in anchors:
        for name, fields in entry.summary.get("results", {}).items():
            series.setdefault(name, []).append(float(fields["best_s"]))
    cases: list[dict[str, Any]] = []
    for name in sorted(series):
        values = series[name]
        first, last = values[0], values[-1]
        case_verdict = verdict(first, last, threshold=threshold, floor=absolute_floor_s)
        cases.append(
            {
                "name": name,
                "points": len(values),
                "first_s": first,
                "last_s": last,
                "change": relative_change(first, last),
                "verdict": "flat" if case_verdict == "within" else case_verdict,
            }
        )
    steps: list[dict[str, Any]] = []
    for older, newer in zip(anchors, anchors[1:]):
        comparison = compare_records(
            newer.summary,
            older.summary,
            threshold=threshold,
            absolute_floor_s=absolute_floor_s,
        )
        if comparison.ok:
            continue
        steps.append(
            {
                "from_sha": older.git_sha,
                "to_sha": newer.git_sha,
                "regressions": comparison.regressions,
                "stage_notes": comparison.stage_notes,
            }
        )
    return TrendReport(threshold=threshold, points=points, cases=cases, steps=steps)
