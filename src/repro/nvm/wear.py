"""Wear and endurance accounting for the NVM array.

PCM cells endure ~10^7–10^8 writes (paper §I); the whole point of DeWrite is
to stretch that budget by eliminating duplicate line writes and (combined
with bit-level techniques) reducing bit flips.  The tracker records, per
line, how many times it was written, and globally how many cells actually
flipped, so the endurance experiments (Figs. 12/13) and the lifetime
estimates in the endurance example can be computed from one source.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.containers import PAGE_MASK, PAGE_SHIFT, PagedCounterStore, new_page


@dataclass(frozen=True)
class WearSummary:
    """Aggregate wear statistics of one simulation run."""

    total_line_writes: int
    total_bit_flips: int
    total_bits_written: int
    max_line_writes: int
    distinct_lines_written: int

    @property
    def mean_flips_per_write(self) -> float:
        """Average flipped cells per line write (Fig. 13's y-axis, in bits)."""
        if not self.total_line_writes:
            return 0.0
        return self.total_bit_flips / self.total_line_writes


def combine_summaries(summaries: "list[WearSummary]") -> WearSummary:
    """Fold per-shard wear summaries into one device-pool rollup.

    Valid only when the inputs cover *disjoint* physical devices (each
    serve shard owns its own NVM array): totals and distinct-line counts
    add, and the pool's hottest line is the max over shards.  Summing
    ``distinct_lines_written`` would double-count if two summaries shared
    an address space — the serve merge never does.
    """
    if not summaries:
        raise ValueError("need at least one summary to combine")
    return WearSummary(
        total_line_writes=sum(s.total_line_writes for s in summaries),
        total_bit_flips=sum(s.total_bit_flips for s in summaries),
        total_bits_written=sum(s.total_bits_written for s in summaries),
        max_line_writes=max(s.max_line_writes for s in summaries),
        distinct_lines_written=sum(s.distinct_lines_written for s in summaries),
    )


@dataclass(frozen=True)
class RegionWear:
    """Wear accumulated by one contiguous address region (or one bank)."""

    index: int
    first_line: int
    lines: int
    line_writes: int
    bit_flips: int
    max_line_writes: int
    hottest_line: int | None

    @property
    def mean_writes_per_line(self) -> float:
        """Average writes per line in the region."""
        if not self.lines:
            return 0.0
        return self.line_writes / self.lines


class WearTracker:
    """Per-line write and bit-flip counts plus global totals.

    Per-line counts live in array-backed paged stores
    (:class:`repro.containers.PagedCounterStore`) — 8 bytes per touched
    line, no per-entry boxing — and the aggregate statistics are maintained
    incrementally so :meth:`summary` is O(1) regardless of trace size.
    """

    def __init__(self) -> None:
        self._line_writes = PagedCounterStore()
        self._line_flips = PagedCounterStore()
        self._write_pages = self._line_writes.pages
        self._flip_pages = self._line_flips.pages
        self._total_line_writes = 0
        self._total_bit_flips = 0
        self._total_bits_written = 0
        self._max_line_writes = 0
        self._distinct_lines = 0

    def record_write(self, line_address: int, bit_flips: int, bits_written: int) -> None:
        """Record one physical line write.

        Args:
            line_address: the physical line that was programmed.
            bit_flips: cells whose value actually changed.
            bits_written: cells the write circuit programmed (equals
                ``bit_flips`` under DCW-style differential writes, or the
                full line width under naive writes).
        """
        if bit_flips < 0 or bits_written < 0:
            raise ValueError("wear quantities must be non-negative")
        # PagedCounterStore.add, inlined on both stores: one call per
        # device write instead of three.
        page_index = line_address >> PAGE_SHIFT
        slot = line_address & PAGE_MASK
        pages = self._write_pages
        page = pages.get(page_index)
        if page is None:
            page = pages[page_index] = new_page()
        count = page[slot] + 1
        page[slot] = count
        if count == 1:
            self._distinct_lines += 1
        if count > self._max_line_writes:
            self._max_line_writes = count
        if bit_flips:
            pages = self._flip_pages
            page = pages.get(page_index)
            if page is None:
                page = pages[page_index] = new_page()
            page[slot] += bit_flips
        self._total_line_writes += 1
        self._total_bit_flips += bit_flips
        self._total_bits_written += bits_written

    def writes_to(self, line_address: int) -> int:
        """Write count of one line."""
        return self._line_writes.get(line_address)

    def flips_to(self, line_address: int) -> int:
        """Accumulated bit flips of one line."""
        return self._line_flips.get(line_address)

    def written_lines(self) -> tuple[int, ...]:
        """Every line written at least once, sorted.

        The wear-correlated cell-fault injector
        (:class:`repro.faults.injectors.CellFaultInjector`) samples its
        victims from this population, weighted by :meth:`writes_to`.
        """
        return tuple(self._line_writes.keys())

    def highest_line_written(self) -> int | None:
        """Largest line address written so far (``None`` before any write).

        Heatmaps over the *touched* address range use this as their upper
        bound — a 16 GiB device rendered over its full address space would
        collapse a small trace's working set into one cell.
        """
        return self._line_writes.max_key()

    def summary(self) -> WearSummary:
        """Aggregate statistics snapshot."""
        return WearSummary(
            total_line_writes=self._total_line_writes,
            total_bit_flips=self._total_bit_flips,
            total_bits_written=self._total_bits_written,
            max_line_writes=self._max_line_writes,
            distinct_lines_written=self._distinct_lines,
        )

    def lifetime_factor(self, baseline: "WearTracker") -> float:
        """Endurance improvement vs a baseline run of the same workload.

        Lifetime under uniform wear levelling is inversely proportional to
        total cell flips, so the factor is baseline flips / our flips.
        """
        ours = self.summary().total_bit_flips
        theirs = baseline.summary().total_bit_flips
        if ours == 0:
            return float("inf") if theirs else 1.0
        return theirs / ours

    # -- spatial profiles (Figs. 12/13: where does the wear concentrate?) ----

    def region_wear(self, total_lines: int, regions: int) -> list[RegionWear]:
        """Wear histogram over ``regions`` contiguous equal address ranges.

        Lines past ``total_lines`` (none, normally) fold into the last
        region, so the profile always accounts every recorded write.
        """
        if total_lines < 1 or regions < 1:
            raise ValueError("need at least one line and one region")
        regions = min(regions, total_lines)
        span = (total_lines + regions - 1) // regions
        profile = self._grouped_wear(
            regions, lambda line: min(line // span, regions - 1), lambda i: i * span, span
        )
        # The last region may be a short remainder of the address space.
        last = profile[-1]
        profile[-1] = replace(last, lines=total_lines - last.first_line)
        return profile

    def bank_wear(self, total_banks: int) -> list[RegionWear]:
        """Wear histogram per bank under the device's round-robin mapping.

        Uses the same ``line % banks`` interleave as
        :meth:`repro.nvm.config.NvmOrganization.bank_of`, so entry *i*
        is exactly bank *i*'s accumulated wear.
        """
        if total_banks < 1:
            raise ValueError("need at least one bank")
        return self._grouped_wear(
            total_banks, lambda line: line % total_banks, lambda i: i, 0
        )

    def _grouped_wear(self, groups, group_of, first_line_of, lines_per_group):
        writes = [0] * groups
        flips = [0] * groups
        peak = [0] * groups
        hottest: list[int | None] = [None] * groups
        for line, count in self._line_writes.items():
            group = group_of(line)
            writes[group] += count
            flips[group] += self._line_flips.get(line)
            if count > peak[group]:
                peak[group] = count
                hottest[group] = line
        return [
            RegionWear(
                index=i,
                first_line=first_line_of(i),
                lines=lines_per_group,
                line_writes=writes[i],
                bit_flips=flips[i],
                max_line_writes=peak[i],
                hottest_line=hottest[i],
            )
            for i in range(groups)
        ]

    def heatmap_grid(
        self, total_lines: int, rows: int, cols: int, metric: str = "writes"
    ) -> list[list[int]]:
        """Wear intensity as a ``rows`` × ``cols`` grid over the address space.

        Cell ``(r, c)`` sums the chosen metric (``"writes"`` or
        ``"flips"``) over its contiguous address slice; render with
        :func:`repro.analysis.charts.render_heatmap`.
        """
        if metric not in ("writes", "flips"):
            raise ValueError(f"metric must be 'writes' or 'flips', got {metric!r}")
        cells = rows * cols
        if total_lines < 1 or cells < 1:
            raise ValueError("need at least one line and one cell")
        source = self._line_writes if metric == "writes" else self._line_flips
        span = (total_lines + cells - 1) // cells
        flat = [0] * cells
        for line, value in source.items():
            flat[min(line // span, cells - 1)] += value
        return [flat[r * cols : (r + 1) * cols] for r in range(rows)]

    def projected_lifetime_years(
        self,
        *,
        total_lines: int,
        line_bits: int,
        cell_endurance_writes: float,
        makespan_ns: float,
        duty_cycle: float = 1.0,
    ) -> float:
        """Device lifetime under ideal wear levelling.

        Total cell-flip budget = cells × endurance; the consumption rate
        comes from the flips recorded over the simulated makespan.  The
        *ratio* between two controllers' estimates is the meaningful
        number; absolute years assume continuous duty.
        """
        if self._total_bit_flips == 0 or makespan_ns <= 0.0:
            return float("inf")
        budget = total_lines * line_bits * cell_endurance_writes
        flips_per_second = self._total_bit_flips / (makespan_ns * 1e-9) * duty_cycle
        return budget / flips_per_second / (365.25 * 24 * 3600)

    def reset(self) -> None:
        """Clear all recorded wear."""
        self._line_writes.clear()
        self._line_flips.clear()
        self._total_line_writes = 0
        self._total_bit_flips = 0
        self._total_bits_written = 0
        self._max_line_writes = 0
        self._distinct_lines = 0
