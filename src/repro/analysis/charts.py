"""ASCII bar charts for experiment tables.

The paper presents per-application results as bar charts; this renders a
:class:`~repro.analysis.reporting.Table` column the same way in plain
text, so ``python -m repro run system --chart write_speedup`` visually
mirrors Fig. 14 in a terminal.
"""

from __future__ import annotations

from repro.analysis.reporting import Table

_BAR = "█"
_HALF = "▌"

#: Intensity ramp for heatmaps, darkest last; index 0 renders truly-zero cells.
_SHADES = " .:-=+*#%@"


def render_bar_chart(
    table: Table,
    value_column: str,
    label_column: str | None = None,
    width: int = 50,
    reference: float | None = None,
) -> str:
    """Render one numeric column of a table as horizontal bars.

    Args:
        table: the experiment table.
        value_column: header of the numeric column to plot.
        label_column: header of the label column (default: first column).
        width: bar width in characters at the maximum value.
        reference: optional value marked with ``|`` on each row (e.g. 1.0
            for speedup charts, separating winners from losers).
    """
    labels = table.column(label_column) if label_column else [row[0] for row in table.rows]
    values = table.column(value_column)
    numeric = [(str(l), float(v)) for l, v in zip(labels, values)]
    if not numeric:
        return f"{table.title}\n(no rows)"

    peak = max(abs(v) for _, v in numeric) or 1.0
    label_width = max(len(l) for l, _ in numeric)
    scale = width / peak
    reference_position = int(reference * scale) if reference is not None else None

    lines = [f"{table.title} — {value_column}", ""]
    for label, value in numeric:
        filled = value * scale
        whole = int(filled)
        bar = _BAR * whole + (_HALF if filled - whole >= 0.5 else "")
        if reference_position is not None and 0 <= reference_position <= width:
            padded = list(bar.ljust(width + 1))
            if reference_position < len(padded) and padded[reference_position] == " ":
                padded[reference_position] = "|"
            elif reference_position >= len(padded):
                padded.extend(" " * (reference_position - len(padded)) + "|")
            bar = "".join(padded).rstrip()
        lines.append(f"{label.rjust(label_width)}  {bar} {value:.3g}")
    if reference is not None:
        lines.append(f"{' ' * label_width}  (| marks {reference:g})")
    return "\n".join(lines)


def render_heatmap(
    grid: list[list[int]] | list[list[float]],
    *,
    title: str = "",
    cell_label: str = "value",
) -> str:
    """Render a 2-D intensity grid (e.g. a wear heatmap) as shaded ASCII.

    Each cell maps its value linearly onto a ten-step shade ramp scaled
    to the grid maximum; zero cells stay blank so cold regions read as
    empty space.  A legend line states the scale so the picture carries
    its own units.
    """
    if not grid or not grid[0]:
        return f"{title}\n(empty grid)" if title else "(empty grid)"
    peak = max(max(row) for row in grid)
    lines = [title] if title else []
    top = len(_SHADES) - 1
    for row in grid:
        cells = []
        for value in row:
            if peak <= 0 or value <= 0:
                cells.append(_SHADES[0])
            else:
                cells.append(_SHADES[max(1, round(value / peak * top))])
        lines.append("".join(cells))
    lines.append(
        f"scale: ' '=0  '{_SHADES[1]}'≈{peak / top:.3g}  '{_SHADES[-1]}'={peak:.3g} "
        f"{cell_label}/cell"
    )
    return "\n".join(lines)


def heatmap_csv(grid: list[list[int]] | list[list[float]]) -> str:
    """The raw heatmap grid as CSV (one row per line, no header)."""
    return "\n".join(",".join(repr(value) for value in row) for row in grid) + "\n"
