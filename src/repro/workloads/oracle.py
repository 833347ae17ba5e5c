"""Ground-truth duplication oracle (the measurement behind Fig. 2).

A line write is *duplicate* when an identical line already resides in
(logical) main memory at the moment of the write — the definition §II-C
uses when reporting that 58 % of written lines are duplicates and 16 % are
zero lines.  The oracle maintains the logical memory image with content
reference counts, so the check is exact and O(1) per write.

:class:`ReplayOracle` is the crash audit's ground truth, separate from the
duplicate statistics: a request-indexed log of every committed write that
resolves each line's latest and earlier versions on demand and classifies
recovered lines by exact byte comparison.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat


def is_zero_line(data: bytes) -> bool:
    """Whether the line is all zeroes (Silent Shredder's target)."""
    return not any(data)


class DedupOracle:
    """Exact duplicate-line detector over the logical memory image."""

    def __init__(self) -> None:
        self._memory: dict[int, bytes] = {}
        self._refcounts: Counter[bytes] = Counter()
        self.writes = 0
        self.duplicates = 0
        self.zero_writes = 0
        self.zero_duplicates = 0

    def observe_write(self, address: int, data: bytes) -> bool:
        """Record one line write; returns whether it was a duplicate.

        A rewrite of a line with its own current content (a silent store)
        counts as duplicate — the content is resident.
        """
        self.writes += 1
        duplicate = self._refcounts[data] > 0
        zero = is_zero_line(data)
        if duplicate:
            self.duplicates += 1
            if zero:
                self.zero_duplicates += 1
        if zero:
            self.zero_writes += 1

        old = self._memory.get(address)
        if old is not None:
            remaining = self._refcounts[old] - 1
            if remaining:
                self._refcounts[old] = remaining
            else:
                del self._refcounts[old]
        self._memory[address] = data
        self._refcounts[data] += 1
        return duplicate

    def observe_batch(self, batch) -> list[bool]:
        """Record every write in a columnar batch, in access order.

        Returns the per-write duplicate verdicts (the ground-truth state
        sequence the Fig. 4 predictors replay), one ``observe_write`` per
        write.
        """
        observe = self.observe_write
        return [observe(address, data) for address, data in batch.write_pairs()]

    @property
    def duplicate_ratio(self) -> float:
        """Fraction of observed writes that were duplicates (Fig. 2)."""
        return self.duplicates / self.writes if self.writes else 0.0

    @property
    def zero_ratio(self) -> float:
        """Fraction of observed writes that were zero lines (Fig. 2)."""
        return self.zero_writes / self.writes if self.writes else 0.0

    def resident_content(self, data: bytes) -> bool:
        """Whether identical content currently resides in memory."""
        return self._refcounts[data] > 0


class ReplayOracle:
    """Request-indexed write log for crash auditing.

    The fault-injection auditor (:mod:`repro.faults.audit`) feeds this
    oracle every committed write up to a crash point, then asks, for every
    line the recovered controller serves, which of three states it is in:

    - ``"intact"``  — the bytes equal the line's latest pre-crash content;
    - ``"stale"``   — the bytes equal some *earlier* content of that line
      (an old version resurfaced because the newer mapping/counter update
      was not yet durable): decryptable, but rolled back;
    - ``"lost"``    — neither: the line decrypts to garbage (lost counter,
      broken dedup reference, or an injected cell fault).

    A write is logged as ``(address, payload, slot)``: the batch's payload
    object and the line's byte offset in it, so no line is copied.  One
    :meth:`observe_writes` call logs a whole crash segment.  Each line's
    latest version is indexed as the log grows; its earlier versions are
    grouped only when a classification first needs them, and verdicts
    compare bytes exactly.
    """

    def __init__(self) -> None:
        self._addresses: list[int] = []
        self._payloads: list[bytes] = []
        self._slots: list[int] = []
        #: Line -> log position of its latest write.
        self._latest: dict[int, int] = {}
        #: Line -> log positions of all its writes, grouped up to ``_grouped``.
        self._versions: dict[int, list[int]] = {}
        self._grouped = 0
        self.line_size = 0

    def observe_writes(self, batch, reqs: list[int]) -> None:
        """Log the writes ``reqs`` of ``batch`` (request indices, in issue
        order).  Captures ``batch.payload`` as it is now: the scalar
        ``write()`` path restages one batch with a new payload per call."""
        self.line_size = batch.line_size
        payload = batch.payload
        if type(payload) is not bytes:
            # A mutable buffer could change under the log: snapshot it.
            payload = bytes(payload)
        addresses = batch.addresses
        slots = batch.slots
        start = len(self._addresses)
        written = [addresses[req] for req in reqs]
        self._addresses.extend(written)
        self._payloads.extend(repeat(payload, len(written)))
        self._slots.extend([slots[req] for req in reqs])
        self._latest.update(zip(written, range(start, start + len(written))))

    def written_addresses(self) -> tuple[int, ...]:
        """Every logical line ever written, sorted (the audit universe)."""
        return tuple(sorted(self._latest))

    def expected(self, address: int) -> bytes | None:
        """Latest pre-crash content of a line (None if never written)."""
        position = self._latest.get(address)
        if position is None:
            return None
        slot = self._slots[position]
        return self._payloads[position][slot : slot + self.line_size]

    def _group_versions(self) -> dict[int, list[int]]:
        """Line -> log positions of its writes, over the whole log."""
        versions = self._versions
        addresses = self._addresses
        for position in range(self._grouped, len(addresses)):
            versions.setdefault(addresses[position], []).append(position)
        self._grouped = len(addresses)
        return versions

    def classify_lines(
        self, addresses, recovered: list[bytes]
    ) -> tuple[list[int], list[int]]:
        """Verdicts for ``recovered[i]`` served at line ``addresses[i]``.

        Returns the stale and the lost lines, in ``addresses`` order; every
        other line is intact.  Raises :class:`KeyError` for a line that was
        never written.
        """
        latest = self._latest
        payloads = self._payloads
        slots = self._slots
        line_size = self.line_size
        versions = None
        stale: list[int] = []
        lost: list[int] = []
        for address, data in zip(addresses, recovered):
            position = latest.get(address)
            if position is None:
                raise KeyError(f"line {address} was never written; nothing to classify")
            if len(data) != line_size:
                lost.append(address)
                continue
            if payloads[position].startswith(data, slots[position]):
                continue
            if versions is None:
                versions = self._group_versions()
            for earlier in versions[address]:
                if payloads[earlier].startswith(data, slots[earlier]):
                    stale.append(address)
                    break
            else:
                lost.append(address)
        return stale, lost
