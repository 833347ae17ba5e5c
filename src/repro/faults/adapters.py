"""Per-controller-family bridges between live controllers and the journal.

The crash simulator (:mod:`repro.faults.crash`) is controller-agnostic: it
wraps any registered controller, attaches a list as the controller's
per-request record (:attr:`~repro.core.interface.MemoryController.request_record`)
and hands each crash segment's write rows to the adapter in one
:meth:`~ControllerFaultAdapter.journal_rows` call, which appends the
semantic metadata updates those writes implied as plain ``(ns, kind, key,
value)`` tuples (see :mod:`repro.faults.journal` for the vocabulary).
Each family's write body writes the facts its adapter reads, evaluated
right after the write.  After power loss, the adapter also answers the
recovery-side questions: how large is the metadata region a recovery scan
must read back, and what plaintext a rebuilt controller serves for the
audited logical lines under a reconstructed durable metadata image
(:meth:`~ControllerFaultAdapter.recovered_lines`, one call per audit).

Three families cover the whole registry:

- :class:`DedupFamilyAdapter` — DeWrite and its integration-mode strawmen
  plus the trusted-fingerprint dedup baseline; all expose the four-table
  :class:`~repro.core.tables.DedupIndex` with colocated counters.
- :class:`SecureFamilyAdapter` — the CME-only baseline and the out-of-line
  page-dedup baseline (whose background scan reads but never rewrites
  lines, so the plain counter-table view is exact).  Mappings are the
  identity; only the counter table is metadata.
- :class:`ShredderAdapter` / :class:`INvmmAdapter` — thin extensions for
  the two baselines whose line state piggybacks on counter metadata
  (shredded-zero lines, plaintext hot lines).
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from repro.faults.journal import DurableState, Event

if TYPE_CHECKING:
    from repro.core.interface import MemoryController


class UnsupportedControllerError(TypeError):
    """The controller exposes no metadata surface the crash model understands."""


class ControllerFaultAdapter(ABC):
    """Extracts journalable metadata updates and recovery views."""

    #: Family label carried into reports ("dedup", "secure", ...).
    family = "unknown"

    def __init__(self, controller: "MemoryController") -> None:
        self.controller = controller

    @abstractmethod
    def journal_rows(
        self, addresses: Sequence[int], rows: list[tuple], events: list[Event]
    ) -> None:
        """Append to ``events`` the metadata updates a segment's committed
        writes implied, in row order, each stamped at its write's
        completion time.  ``rows`` are the segment's write rows ``(req,
        complete_ns, *facts)``; ``addresses[req]`` is the written line."""

    @abstractmethod
    def metadata_lines(self) -> int:
        """NVM lines a recovery scan must read to rebuild the metadata."""

    @abstractmethod
    def data_lines(self) -> int:
        """Lines of the data region (the cell-fault victim universe)."""

    @abstractmethod
    def recovered_lines(self, durable: DurableState, addresses: Sequence[int]) -> list[bytes]:
        """Plaintext a rebuilt controller serves for each logical line of
        ``addresses`` under the reconstructed ``durable`` metadata image
        (post-crash array bytes), in order."""

    def metadata_decrypt_ns(self) -> float:
        """Per-line decrypt latency of the metadata region (recovery cost)."""
        return float(self.controller.config.metadata_decrypt_ns)

    @property
    def _zeros(self) -> bytes:
        return bytes(self.controller.line_size)


class DedupFamilyAdapter(ControllerFaultAdapter):
    """DeWrite-machinery controllers: four tables + colocated counters."""

    family = "dedup"

    def journal_rows(
        self, addresses: Sequence[int], rows: list[tuple], events: list[Event]
    ) -> None:
        append = events.append
        for req, ns, old_phys, new_phys, counter, crc, old_holds_data in rows:
            if crc is None:
                raise RuntimeError(
                    f"write of line {addresses[req]} targets empty line {new_phys}"
                )
            append((ns, "map", addresses[req], new_phys))
            append((ns, "ctr", new_phys, counter))
            append((ns, "stored", new_phys, crc))
            # The old physical line matters only if the write released it.
            if old_phys is not None and old_phys != new_phys and not old_holds_data:
                append((ns, "free", old_phys, None))

    def metadata_lines(self) -> int:
        return int(self.controller.layout.metadata_lines)

    def data_lines(self) -> int:
        return int(self.controller.layout.data_lines)

    def recovered_lines(self, durable: DurableState, addresses: Sequence[int]) -> list[bytes]:
        mapping = durable.mapping.get
        counters = durable.counters.get
        peek_int = self.controller.nvm.peek_int
        pad_int_for = self.controller.cme.pad_int_for
        n = self.controller.line_size
        zeros = self._zeros
        lines = []
        append = lines.append
        for logical in addresses:
            phys = mapping(logical)
            if phys is None:
                # Never durably mapped: a rebuilt index serves the erased pattern.
                append(zeros)
            else:
                # Decrypt in the integer domain the device stores lines in.
                plain = peek_int(phys) ^ pad_int_for(phys, counters(phys, 0), n)
                append(plain.to_bytes(n, "little"))
        return lines


class SecureFamilyAdapter(ControllerFaultAdapter):
    """CME-only controllers: identity mapping, counter table as metadata."""

    family = "secure"

    def journal_rows(
        self, addresses: Sequence[int], rows: list[tuple], events: list[Event]
    ) -> None:
        append = events.append
        for row in rows:
            ns = row[1]
            address = addresses[row[0]]
            append((ns, "map", address, address))
            append((ns, "ctr", address, row[2]))

    def metadata_lines(self) -> int:
        return int(self.controller._counter_lines)

    def data_lines(self) -> int:
        return int(self.controller.data_lines)

    def recovered_lines(self, durable: DurableState, addresses: Sequence[int]) -> list[bytes]:
        shredded = durable.shredded
        plaintext = durable.plaintext
        mapping = durable.mapping.get
        counters = durable.counters.get
        peek = self.controller.nvm.peek
        peek_int = self.controller.nvm.peek_int
        pad_int_for = self.controller.cme.pad_int_for
        n = self.controller.line_size
        zeros = self._zeros
        lines = []
        append = lines.append
        for logical in addresses:
            if logical in shredded:
                append(zeros)
            elif logical in plaintext:
                append(peek(logical))
            else:
                phys = mapping(logical)
                counter = None if phys is None else counters(phys)
                if counter is None:
                    # Unmapped, or the mapping survived but the counter
                    # didn't (torn flush): the rebuilt controller has no
                    # counter entry and, like the live read path, serves
                    # the erased pattern for counter-less lines.
                    append(zeros)
                else:
                    plain = peek_int(phys) ^ pad_int_for(phys, counter, n)
                    append(plain.to_bytes(n, "little"))
        return lines


class ShredderAdapter(SecureFamilyAdapter):
    """Silent Shredder: zero writes become counter-metadata shred marks."""

    family = "shredder"

    def journal_rows(
        self, addresses: Sequence[int], rows: list[tuple], events: list[Event]
    ) -> None:
        append = events.append
        for req, ns, counter in rows:
            address = addresses[req]
            if counter is None:
                # The write was cancelled; only the shred mark must persist.
                append((ns, "shred", address, None))
            else:
                append((ns, "map", address, address))
                append((ns, "ctr", address, counter))


class INvmmAdapter(SecureFamilyAdapter):
    """i-NVMM: hot writes land in plaintext; evictions re-encrypt a victim."""

    family = "i-nvmm"

    def journal_rows(
        self, addresses: Sequence[int], rows: list[tuple], events: list[Event]
    ) -> None:
        append = events.append
        for req, ns, victim, victim_counter in rows:
            # Every i-NVMM write makes the line hot and stores it in
            # plaintext with its counter invalidated.
            append((ns, "plain", addresses[req], None))
            if victim_counter is not None:
                # The write evicted the LRU line, which was re-encrypted in
                # place under a fresh counter.
                append((ns, "ctr", victim, victim_counter))


def adapter_for(controller: "MemoryController") -> ControllerFaultAdapter:
    """The most specific adapter for ``controller`` (by family).

    Imports nothing new: a controller's class, and every class it derives
    from, is loaded before the controller exists, so a family whose module
    is not in ``sys.modules`` cannot match and is skipped.  The crash model
    thus never loads a baseline the campaign does not run.
    """
    loaded = sys.modules
    if "repro.baselines.silent_shredder" in loaded:
        from repro.baselines.silent_shredder import SilentShredderController

        if isinstance(controller, SilentShredderController):
            return ShredderAdapter(controller)
    if "repro.baselines.i_nvmm" in loaded:
        from repro.baselines.i_nvmm import INvmmController

        if isinstance(controller, INvmmController):
            return INvmmAdapter(controller)
    if "repro.baselines.secure_nvm" in loaded:
        from repro.baselines.secure_nvm import TraditionalSecureNvmController

        if isinstance(controller, TraditionalSecureNvmController):
            # Covers the CME-only baseline and out-of-line page dedup (whose
            # background scan never mutates counters or line contents).
            return SecureFamilyAdapter(controller)
    if "repro.core.dewrite" in loaded:
        from repro.core.dewrite import DeWriteController

        if isinstance(controller, DeWriteController):
            return DedupFamilyAdapter(controller)
    raise UnsupportedControllerError(
        f"no fault adapter for controller type {type(controller).__name__}"
    )
