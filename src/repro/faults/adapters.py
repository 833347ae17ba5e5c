"""Per-controller-family bridges between live controllers and the journal.

The crash simulator (:mod:`repro.faults.crash`) is controller-agnostic: it
wraps any registered controller and, after every committed write, asks the
adapter which semantic metadata updates that write implied (see
:mod:`repro.faults.journal` for the event vocabulary).  After power loss,
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
from typing import TYPE_CHECKING, Any

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
    def snapshot_before_write(self, address: int) -> Any:
        """Capture whatever pre-write state ``updates_for_write`` needs."""

    @abstractmethod
    def updates_for_write(
        self, address: int, data: bytes, complete_ns: float, snapshot: Any
    ) -> list[MetadataUpdate]:
        """Semantic metadata updates the committed write implied, stamped
        at the write's completion time."""

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

    def snapshot_before_write(self, address: int) -> int | None:
        # The physical line the logical address resolved to before the
        # write — needed to detect that the write released it.
        return self.controller.index.physical_of(address)

    def updates_for_write(
        self, address: int, data: bytes, complete_ns: float, snapshot: Any
    ) -> list[MetadataUpdate]:
        index = self.controller.index
        ns = complete_ns
        new_phys = index.physical_of(address)
        if new_phys is None:
            raise RuntimeError(f"write of line {address} left it unmapped")
        crc = index.content_crc(new_phys)
        if crc is None:
            raise RuntimeError(f"write of line {address} targets empty line {new_phys}")
        updates = [
            MetadataUpdate(ns, "map", address, new_phys),
            MetadataUpdate(ns, "ctr", new_phys, index.peek_counter(new_phys)),
            MetadataUpdate(ns, "stored", new_phys, crc),
        ]
        old_phys = snapshot
        if old_phys is not None and old_phys != new_phys and not index.holds_data(old_phys):
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

    def snapshot_before_write(self, address: int) -> Any:
        return None

    def _counter_of(self, address: int) -> int:
        controller = self.controller
        if controller._split is not None:
            return controller._split.counter_of(address)
        return controller._counters.get(address, 0)

    def updates_for_write(
        self, address: int, data: bytes, complete_ns: float, snapshot: Any
    ) -> list[MetadataUpdate]:
        ns = complete_ns
        return [
            MetadataUpdate(ns, "map", address, address),
            MetadataUpdate(ns, "ctr", address, self._counter_of(address)),
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

    def updates_for_write(
        self, address: int, data: bytes, complete_ns: float, snapshot: Any
    ) -> list[MetadataUpdate]:
        if address in self.controller._shredded:
            # The write was cancelled; only the shred mark must persist.
            return [MetadataUpdate(complete_ns, "shred", address)]
        return super().updates_for_write(address, data, complete_ns, snapshot)


class INvmmAdapter(SecureFamilyAdapter):
    """i-NVMM: hot writes land in plaintext; evictions re-encrypt a victim."""

    family = "i-nvmm"

    def snapshot_before_write(self, address: int) -> int | None:
        # The LRU-oldest hot line is the only possible eviction victim of
        # this write (a write evicts at most one hot line).
        return next(iter(self.controller._hot), None)

    def updates_for_write(
        self, address: int, data: bytes, complete_ns: float, snapshot: Any
    ) -> list[MetadataUpdate]:
        controller = self.controller
        ns = complete_ns
        # Every i-NVMM write makes the line hot and stores it in plaintext
        # with its counter invalidated.
        updates = [MetadataUpdate(ns, "plain", address)]
        victim = snapshot
        if (
            victim is not None
            and victim not in controller._hot
            and victim in controller._counters
        ):
            # The write evicted the LRU line, which was re-encrypted in
            # place under a fresh counter.
            updates.append(MetadataUpdate(ns, "ctr", victim, controller._counters[victim]))
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
