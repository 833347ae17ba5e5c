"""Out-of-line page-level memory deduplication (paper §V contrast).

Traditional memory deduplication (ESX/KSM-style, the §V related work)
scans memory *in the background*, merging identical **pages** after they
were written.  The paper's point is structural: because the duplicate is
detected only after the write already happened, out-of-line dedup saves
*capacity* but exactly **zero writes** — useless for NVM endurance.

This controller makes that argument measurable: it is the traditional
secure-NVM controller plus a background scanner that, every
``scan_interval_writes`` writes, fingerprints whole pages and records
merge opportunities.  Its ``capacity_saved_lines`` grows while its
``stats.writes_deduplicated`` stays zero — the exact contrast the §V
comparison bench prints against DeWrite.

(The merge itself is bookkeeping-only: real KSM would update page tables;
for the endurance argument only the *when* of detection matters.)
"""

from __future__ import annotations

from collections import defaultdict

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.core.batching import merge_state
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class OutOfLinePageDedupController(TraditionalSecureNvmController):
    """Secure NVM with background (post-write) page deduplication."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
        lines_per_page: int = 16,
        scan_interval_writes: int = 256,
    ) -> None:
        super().__init__(nvm, config, cme)
        if lines_per_page < 1:
            raise ValueError("pages must contain at least one line")
        if scan_interval_writes < 1:
            raise ValueError("scan interval must be positive")
        self.lines_per_page = lines_per_page
        self.scan_interval_writes = scan_interval_writes
        self._plain: dict[int, bytes] = {}  # logical image for page hashing
        self._writes_since_scan = 0
        self.scans = 0
        self.merged_pages = 0
        self.capacity_saved_lines = 0
        self._merged: set[int] = set()  # pages currently merged away
        self._pages: set[int] = set()  # pages with at least one written line
        # Page content keys are pure functions of the page's plaintext, so
        # the scanner only rebuilds pages dirtied since the last scan.
        self._page_fp: dict[int, tuple[bytes, ...]] = {}

    def _service_stream(self, batch, cursor, max_requests=None):
        """The shared kernel, sliced at each scan-triggering write.

        Every write reaches the array first; dedup happens later.  Each
        slice ends at the write that completes a scan interval, so after
        the slice the page bookkeeping of its writes is applied in order
        and the background scan runs at that write's completion, before
        any later request issues.  While more than one stream is active,
        each slice is the one request the merge issues next, so the
        bookkeeping follows the merged order.  The secure bodies write
        the request record; the scan changes no counter, so its rows hold.
        """
        kernel = super()._service_stream
        ops = batch.ops
        serviced = reads = writes = 0
        while cursor.active and serviced != max_requests:
            core = merge_state(cursor)[2]
            stream = cursor.streams[core]
            start = cursor.positions[core]
            stop = len(stream) if len(cursor.active) == 1 else start + 1
            if max_requests is not None:
                stop = min(stop, start + max_requests - serviced)
            due = self.scan_interval_writes - self._writes_since_scan
            scan = False
            for position in range(start, stop):
                if ops[stream[position]]:
                    due -= 1
                    if not due:
                        stop = position + 1
                        scan = True
                        break
            done, done_reads, done_writes, _ = kernel(batch, cursor, stop - start)
            if done_writes:
                self._track_pages(batch, stream[start:stop])
            if scan:
                self._writes_since_scan = 0
                self._background_scan(self._complete_ns)
            else:
                self._writes_since_scan += done_writes
            serviced += done
            reads += done_reads
            writes += done_writes
        return serviced, reads, writes, 0

    def _track_pages(self, batch, requests: list[int]) -> None:
        """Record serviced writes in the logical image and dirty-page set."""
        ops = batch.ops
        addresses = batch.addresses
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        plain = self._plain
        pages = self._pages
        page_fp = self._page_fp
        merged = self._merged
        lines_per_page = self.lines_per_page
        for req in requests:
            if not ops[req]:
                continue
            address = addresses[req]
            slot = slots[req]
            plain[address] = payload[slot : slot + line_size]
            page = address // lines_per_page
            pages.add(page)
            page_fp.pop(page, None)
            if page in merged:
                # Copy-on-write break: the page diverged, the merge is undone.
                merged.discard(page)
                self.capacity_saved_lines -= lines_per_page

    def _background_scan(self, now_ns: float) -> None:
        """Group pages by content; merge newly identical ones.

        Pages are keyed by the tuple of their plain line contents: equal
        keys ARE byte-equal pages (bytes hashes are cached by the
        interpreter after first use, so rehashing a clean page is cheap),
        which folds the old CRC-fingerprint pass and the page-by-page
        verification compare into the one grouping step.  The scan reads
        merged pages through the array (timed, posted) like the real
        scanner would, charging its bank occupancy.
        """
        self.scans += 1
        by_content: dict[tuple[bytes, ...], list[int]] = defaultdict(list)
        plain = self._plain
        cached_fp = self._page_fp
        lines_per_page = self.lines_per_page
        merged = self._merged
        for page in sorted(self._pages):
            if page in merged:
                continue
            fingerprint = cached_fp.get(page)
            if fingerprint is None:
                base = page * lines_per_page
                fingerprint = tuple(
                    [plain.get(line, b"") for line in range(base, base + lines_per_page)]
                )
                cached_fp[page] = fingerprint
            by_content[fingerprint].append(page)
        for group in by_content.values():
            if len(group) < 2:
                continue
            # Every member is byte-identical to the first; merge the rest.
            for candidate in group[1:]:
                # The scanner's verification reads occupy banks.
                base = candidate * self.lines_per_page
                self.nvm.read_burst(range(base, base + self.lines_per_page), now_ns)
                self._merged.add(candidate)
                self.merged_pages += 1
                self.capacity_saved_lines += self.lines_per_page
