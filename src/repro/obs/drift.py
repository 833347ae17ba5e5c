"""The drift engine: one set of comparison rules for every drift verb.

``repro diff`` (counters, timeline windows, fault scenarios, stage
sections, trace percentiles, figure tables), ``repro regress``, ``repro
bench --check/--gate`` and ``repro trend`` all decide drift with three
rules, each written once here:

1. **keyed match** (:func:`match`, :func:`differing_fields`): what is only
   in a, only in b, and which fields of a matched pair differ;
2. **tolerance** (:func:`drifted`): numbers drift when ``|cur - ref| >
   max(floor, rel * |ref|)``, anything else when unequal; NaN on exactly
   one side is drift, NaN on both sides is equal.  A cell drifting from
   or to zero is ``"appeared"``/``"vanished"``, never a ±inf change;
3. **directional verdict** (:func:`verdict`): a tolerance drift (``rel``
   = threshold, ``floor`` = absolute floor) is ``"regressed"`` when the
   value grew or turned NaN, ``"improved"`` when it shrank, and anything
   else is ``"within"``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, NamedTuple


class Match(NamedTuple):
    """Keys of two collections: only in a, only in b, and in both."""

    only_a: list[Any]
    only_b: list[Any]
    both: list[Any]

    def one_sided(self, template: str, label: Callable[[Any], str] = str) -> list[str]:
        """One note per unmatched key, a's first; ``template`` gets ``side``, ``key``."""
        return [
            template.format(side=side, key=label(key))
            for side, keys in (("a", self.only_a), ("b", self.only_b))
            for key in keys
        ]


def match(
    a: Mapping[Any, Any],
    b: Mapping[Any, Any],
    order: Callable[[Iterable[Any]], list[Any]] = sorted,
) -> Match:
    """Rule 1: match by key; ``order=list`` keeps insertion order instead of sorting."""
    return Match(
        order(key for key in a if key not in b),
        order(key for key in b if key not in a),
        order(key for key in a if key in b),
    )


def _numbers(*values: Any) -> bool:
    return all(isinstance(value, (int, float)) for value in values)


def drifted(ref: Any, cur: Any, *, rel: float = 1e-9, floor: float = 0.0) -> bool:
    """Rule 2 (the defaults allow float rounding only; ``rel=0.0`` is exact)."""
    if not _numbers(ref, cur):
        return bool(ref != cur)
    ref_nan, cur_nan = ref != ref, cur != cur
    if ref_nan or cur_nan:
        return ref_nan != cur_nan
    return abs(cur - ref) > max(floor, rel * abs(ref))


def relative_change(ref: float, cur: float) -> float:
    """Signed change relative to ``|ref|``; ``nan`` (never inf) from a zero ref."""
    if ref == 0:
        return 0.0 if cur == 0 else float("nan")
    return (cur - ref) / abs(ref)


def verdict(ref: float, cur: float, *, threshold: float, floor: float) -> str:
    """Rule 3: ``"regressed"``, ``"improved"`` or ``"within"``."""
    if not drifted(ref, cur, rel=threshold, floor=floor):
        return "within"
    return "improved" if cur < ref else "regressed"


def differing_fields(a: Mapping[str, Any], b: Mapping[str, Any]) -> list[str]:
    """Sorted names of the fields whose values differ exactly between ``a``, ``b``."""
    return sorted(
        name for name in a.keys() | b.keys() if drifted(a.get(name), b.get(name), rel=0.0)
    )


@dataclass(frozen=True)
class Drift:
    """One table cell whose value moved beyond tolerance."""

    row_key: Any
    column: str
    reference: Any
    current: Any

    @property
    def category(self) -> str:
        """``"appeared"`` (0 -> x), ``"vanished"`` (x -> 0) or ``"changed"``."""
        if _numbers(self.reference, self.current):
            if self.reference == 0 and self.current != 0:
                return "appeared"
            if self.reference != 0 and self.current == 0:
                return "vanished"
        return "changed"

    @property
    def relative_change(self) -> float:
        """Signed change vs the reference; ``nan`` when appeared or non-numeric."""
        if not _numbers(self.reference, self.current):
            return float("nan")
        return relative_change(self.reference, self.current)

    def __str__(self) -> str:
        where = f"{self.row_key}/{self.column}"
        if not _numbers(self.reference, self.current):
            return f"{where}: {self.reference!r} -> {self.current!r}"
        if self.category == "appeared":
            return f"{where}: appeared (0 -> {self.current:g})"
        if self.category == "vanished":
            return f"{where}: vanished ({self.reference:g} -> 0)"
        return (
            f"{where}: {self.reference:g} -> {self.current:g} "
            f"({self.relative_change:+.1%})"
        )


@dataclass(frozen=True)
class RegressionReport:
    """Outcome of comparing two exported tables.

    ``drifts`` holds value changes between two nonzero cells;
    ``appeared`` / ``vanished`` hold cells whose reference (respectively
    current) value is zero, where a relative percentage would be
    meaningless.
    """

    drifts: list[Drift]
    missing_rows: list[Any]
    extra_rows: list[Any]
    cells_compared: int
    appeared: list[Drift] = field(default_factory=list)
    vanished: list[Drift] = field(default_factory=list)

    @property
    def all_drifts(self) -> list[Drift]:
        """Every out-of-tolerance cell across the three categories."""
        return [*self.drifts, *self.appeared, *self.vanished]

    @property
    def clean(self) -> bool:
        """True when nothing drifted (any category) and the row sets match."""
        return not (self.all_drifts or self.missing_rows or self.extra_rows)

    def summary(self) -> str:
        """One-paragraph human description."""
        if self.clean:
            return f"clean: {self.cells_compared} cells within tolerance"
        lines = [
            f"{len(self.drifts)} drifted cells, {len(self.appeared)} appeared, "
            f"{len(self.vanished)} vanished, {len(self.missing_rows)} missing rows, "
            f"{len(self.extra_rows)} extra rows (of {self.cells_compared} cells compared)"
        ]
        shown = self.all_drifts
        lines.extend(str(d) for d in shown[:20])
        if len(shown) > 20:
            lines.append(f"... and {len(shown) - 20} more")
        return "\n".join(lines)


def load_table(path: str | Path) -> dict[str, Any]:
    """Read one ``table_to_dict`` export; raises ``ValueError`` when malformed."""
    try:
        table = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: not valid JSON ({error})") from error
    rows = table.get("rows") if isinstance(table, dict) else None
    if not (isinstance(rows, list) and isinstance(table.get("headers"), list)
            and all(isinstance(row, list) and row for row in rows)):
        raise ValueError(f"{path}: not a table export (needs 'headers' and 'rows' lists)")
    return table


def compare_tables(
    reference: dict[str, Any],
    current: dict[str, Any],
    relative_tolerance: float = 0.05,
    absolute_tolerance: float = 1e-9,
) -> RegressionReport:
    """Compare two ``table_to_dict`` exports keyed on their first column.

    Cells drift by :func:`drifted` with ``relative_tolerance`` and an
    ``absolute_tolerance`` floor, so non-numeric cells must match exactly.
    """
    if reference["headers"] != current["headers"]:
        raise ValueError(
            f"header mismatch: {reference['headers']} vs {current['headers']}"
        )
    columns = reference["headers"][1:]
    reference_rows = {row[0]: row[1:] for row in reference["rows"]}
    current_rows = {row[0]: row[1:] for row in current["rows"]}
    missing, extra, common = match(reference_rows, current_rows, order=list)

    found: dict[str, list[Drift]] = {"changed": [], "appeared": [], "vanished": []}
    compared = 0
    for key in common:
        for column, ref_value, cur_value in zip(columns, reference_rows[key], current_rows[key]):
            compared += 1
            if drifted(ref_value, cur_value, rel=relative_tolerance, floor=absolute_tolerance):
                drift = Drift(key, column, ref_value, cur_value)
                found[drift.category].append(drift)

    return RegressionReport(
        drifts=found["changed"],
        missing_rows=missing,
        extra_rows=extra,
        cells_compared=compared,
        appeared=found["appeared"],
        vanished=found["vanished"],
    )
