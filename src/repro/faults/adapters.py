"""Per-controller-family bridges between live controllers and the journal.

The crash simulator (:mod:`repro.faults.crash`) is controller-agnostic: it
wraps any registered controller, attaches a list as the controller's
per-request record (:attr:`~repro.core.interface.MemoryController.request_record`)
and, for every committed write's row, asks the adapter which semantic
metadata updates that write implied (see :mod:`repro.faults.journal` for
the event vocabulary).  Each kernel writes the facts its family's adapter
reads, evaluated right after the write.  After power loss,
the adapter also answers the recovery-side questions: how large is the
metadata region a recovery scan must read back, and what plaintext does a
rebuilt controller serve for a given logical line under a reconstructed
durable metadata image.

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

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

from repro.faults.journal import DurableState, MetadataUpdate

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
    def updates_from_record(self, address: int, row: tuple) -> list[MetadataUpdate]:
        """Semantic metadata updates the committed write of ``address``
        implied, from its request-record ``row`` ``(req, complete_ns,
        *facts)``, stamped at the write's completion time."""

    @abstractmethod
    def metadata_lines(self) -> int:
        """NVM lines a recovery scan must read to rebuild the metadata."""

    @abstractmethod
    def data_lines(self) -> int:
        """Lines of the data region (the cell-fault victim universe)."""

    @abstractmethod
    def recovered_plaintext(self, durable: DurableState, logical: int) -> bytes:
        """Plaintext a rebuilt controller serves for ``logical`` under the
        reconstructed ``durable`` metadata image (post-crash array bytes)."""

    def metadata_decrypt_ns(self) -> float:
        """Per-line decrypt latency of the metadata region (recovery cost)."""
        return float(self.controller.config.metadata_decrypt_ns)

    @property
    def _zeros(self) -> bytes:
        return bytes(self.controller.line_size)


class DedupFamilyAdapter(ControllerFaultAdapter):
    """DeWrite-machinery controllers: four tables + colocated counters."""

    family = "dedup"

    def updates_from_record(self, address: int, row: tuple) -> list[MetadataUpdate]:
        # The old physical line matters only if the write released it.
        _, ns, old_phys, new_phys, counter, crc, old_holds_data = row
        if crc is None:
            raise RuntimeError(f"write of line {address} targets empty line {new_phys}")
        updates = [
            MetadataUpdate(ns, "map", address, new_phys),
            MetadataUpdate(ns, "ctr", new_phys, counter),
            MetadataUpdate(ns, "stored", new_phys, crc),
        ]
        if old_phys is not None and old_phys != new_phys and not old_holds_data:
            updates.append(MetadataUpdate(ns, "free", old_phys))
        return updates

    def metadata_lines(self) -> int:
        return int(self.controller.layout.metadata_lines)

    def data_lines(self) -> int:
        return int(self.controller.layout.data_lines)

    def recovered_plaintext(self, durable: DurableState, logical: int) -> bytes:
        phys = durable.mapping.get(logical)
        if phys is None:
            # Never durably mapped: a rebuilt index serves the erased pattern.
            return self._zeros
        raw = self.controller.nvm.peek(phys)
        counter = durable.counters.get(phys, 0)
        return self.controller.cme.decrypt(raw, phys, counter)


class SecureFamilyAdapter(ControllerFaultAdapter):
    """CME-only controllers: identity mapping, counter table as metadata."""

    family = "secure"

    def updates_from_record(self, address: int, row: tuple) -> list[MetadataUpdate]:
        ns, counter = row[1], row[2]
        return [
            MetadataUpdate(ns, "map", address, address),
            MetadataUpdate(ns, "ctr", address, counter),
        ]

    def metadata_lines(self) -> int:
        return int(self.controller._counter_lines)

    def data_lines(self) -> int:
        return int(self.controller.data_lines)

    def recovered_plaintext(self, durable: DurableState, logical: int) -> bytes:
        if logical in durable.shredded:
            return self._zeros
        if logical in durable.plaintext:
            return self.controller.nvm.peek(logical)
        phys = durable.mapping.get(logical)
        if phys is None:
            return self._zeros
        counter = durable.counters.get(phys)
        if counter is None:
            # Mapping survived but the counter didn't (torn flush): the
            # rebuilt controller has no counter entry and — like the live
            # read path — serves the erased pattern for counter-less lines.
            return self._zeros
        return self.controller.cme.decrypt(self.controller.nvm.peek(phys), phys, counter)


class ShredderAdapter(SecureFamilyAdapter):
    """Silent Shredder: zero writes become counter-metadata shred marks."""

    family = "shredder"

    def updates_from_record(self, address: int, row: tuple) -> list[MetadataUpdate]:
        if row[3]:
            # The write was cancelled; only the shred mark must persist.
            return [MetadataUpdate(row[1], "shred", address)]
        return super().updates_from_record(address, row)


class INvmmAdapter(SecureFamilyAdapter):
    """i-NVMM: hot writes land in plaintext; evictions re-encrypt a victim."""

    family = "i-nvmm"

    def updates_from_record(self, address: int, row: tuple) -> list[MetadataUpdate]:
        _, ns, victim, victim_counter = row
        # Every i-NVMM write makes the line hot and stores it in plaintext
        # with its counter invalidated.
        updates = [MetadataUpdate(ns, "plain", address)]
        if victim_counter is not None:
            # The write evicted the LRU line, which was re-encrypted in
            # place under a fresh counter.
            updates.append(MetadataUpdate(ns, "ctr", victim, victim_counter))
        return updates


def adapter_for(controller: "MemoryController") -> ControllerFaultAdapter:
    """The most specific adapter for ``controller`` (by family).

    Imports lazily, mirroring :mod:`repro.core.registry`, so the crash
    model never forces every baseline into memory.
    """
    from repro.baselines.i_nvmm import INvmmController
    from repro.baselines.secure_nvm import TraditionalSecureNvmController
    from repro.baselines.silent_shredder import SilentShredderController
    from repro.core.dewrite import DeWriteController

    if isinstance(controller, SilentShredderController):
        return ShredderAdapter(controller)
    if isinstance(controller, INvmmController):
        return INvmmAdapter(controller)
    if isinstance(controller, TraditionalSecureNvmController):
        # Covers the CME-only baseline and out-of-line page dedup (whose
        # background scan never mutates counters or line contents).
        return SecureFamilyAdapter(controller)
    if isinstance(controller, DeWriteController):
        return DedupFamilyAdapter(controller)
    raise UnsupportedControllerError(
        f"no fault adapter for controller type {type(controller).__name__}"
    )
