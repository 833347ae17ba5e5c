"""Runtime conservation-law checking for memory controllers.

:class:`CheckedController` wraps any
:class:`~repro.core.interface.MemoryController` and re-verifies, after
every serviced request, the laws the paper's correctness argument rests on
(§III-B2, §III-C, §II-B):

- **write conservation** — every requested write is either eliminated by
  deduplication or stored: ``writes_requested == writes_deduplicated +
  writes_stored``, per operation and cumulatively;
- **device-write conservation** — array writes are exactly the stored data
  writes plus metadata writebacks (plus the background re-encryptions some
  baselines issue): nothing reaches the NVM unaccounted;
- **index consistency** — dedup-index reference counts mirror the address
  mapping (every refcount equals the number of logicals mapped at the
  entry, via :meth:`repro.core.tables.DedupIndex.verify`);
- **counter monotonicity** — per-line encryption counters never decrease
  (pad uniqueness: a decreasing counter would reuse a one-time pad);
- **round-trip** — decrypt∘encrypt is the identity on every written line:
  the ciphertext at the mapped physical line decrypts back to the exact
  plaintext the CPU wrote, and every read returns what a plain dict would.

The checks wrap the controller's own kernel: each request is handed to it
alone (``inner._service_stream(batch, cursor, 1)``), so a checked run
exercises the path that produces the figures, multi-stream merges
included.  Cheap per-operation checks run on every request; the full
structural sweep (:meth:`CheckedController.verify`) additionally runs
every ``deep_check_interval`` operations and at :meth:`close`.  The
wrapper is timing-transparent: it forwards requests unchanged and inspects
state only through untimed interfaces (``peek``/snapshots), so a checked
run produces bit-identical results and statistics to an unchecked one.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.batching import merge_state
from repro.core.interface import MemoryController

# Baseline-specific counters of *extra* legitimate device writes (counter
# overflow re-encryption, i-NVMM cold-line encryption).  Unknown future
# controllers with other background writes should grow this list — the
# checker fails loudly otherwise, which is the point.
_EXTRA_DEVICE_WRITE_COUNTERS = ("reencrypted_lines", "cold_encryptions")


class InvariantViolation(RuntimeError):
    """A runtime conservation law of the simulator was broken."""


@dataclass(frozen=True)
class _Snapshot:
    """Cumulative counters captured around one request."""

    writes_requested: int
    writes_deduplicated: int
    writes_stored: int
    reads_requested: int
    metadata_writebacks: int
    nvm_writes: int
    extra_device_writes: int


class CheckedController(MemoryController):
    """Shadow any memory controller with per-request invariant checks.

    Args:
        inner: the controller to wrap (DeWrite or any baseline).
        deep_check_interval: run the full structural verification every
            this many requests (0 disables periodic deep checks; they
            still run on :meth:`verify`/:meth:`close`).
        check_data: verify plaintext round-trips (written lines decrypt
            back to their plaintext; reads return the shadow image).
            Disable for controllers that *by design* may corrupt on
            fingerprint collisions; trusted-fingerprint dedup
            (``config.trust_fingerprint``) is auto-detected and exempted
            from the write-side ciphertext check.
    """

    def __init__(
        self,
        inner: MemoryController,
        deep_check_interval: int = 256,
        check_data: bool = True,
    ) -> None:
        super().__init__(inner.nvm)
        if deep_check_interval < 0:
            raise ValueError("deep_check_interval must be non-negative")
        self.inner = inner
        #: The wrapped controller's statistics object.
        self.stats = inner.stats
        self.deep_check_interval = deep_check_interval
        self.check_data = check_data
        self.operations = 0
        self.deep_checks = 0
        self._image: dict[int, bytes] = {}
        self._counter_shadow: dict[int, int] = {}
        self._trusts_fingerprint = bool(
            getattr(getattr(inner, "config", None), "trust_fingerprint", False)
        )

    # -- controller interface -------------------------------------------------

    def __getattr__(self, name: str):
        # Fall through to the wrapped controller for everything the wrapper
        # does not define (flush_metadata, index, cme, config, ...).
        try:
            inner = object.__getattribute__(self, "inner")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(inner, name)

    def _propagate_observers(self, tracer, timeline, stages) -> None:
        self.inner.attach_observers(tracer=tracer, timeline=timeline, stages=stages)

    def _plaintext(self, address: int) -> bytes:
        return self.inner._plaintext(address)

    def _service_stream(self, batch, cursor, max_requests=None):
        """Hand each request alone to the wrapped kernel, then check it.

        The request is the one the kernel's merge issues next (see
        :func:`~repro.core.batching.merge_state`).  Defined here, not
        reached through :meth:`__getattr__`: ``service_batch`` calls
        ``self._service_stream``, and the wrapped kernel would skip every
        check.
        """
        inner = self.inner
        service = inner._service_stream
        ops = batch.ops
        addresses = batch.addresses
        slots = batch.slots
        line_size = batch.line_size
        streams = cursor.streams
        positions = cursor.positions
        serviced = reads = writes = deduplicated = 0
        while cursor.active and serviced != max_requests:
            core = merge_state(cursor)[2]
            req = streams[core][positions[core]]
            address = addresses[req]
            before = self._snapshot()
            eliminated = service(batch, cursor, 1)[3]
            after = self._snapshot()
            if ops[req]:
                slot = slots[req]
                data = batch.payload[slot : slot + line_size]
                self._check_write(address, data, before, after, eliminated == 1)
                writes += 1
                deduplicated += eliminated
            else:
                self._check_read(address, before, after)
                reads += 1
            self._tick()
            serviced += 1
        self._complete_ns = inner._complete_ns
        return serviced, reads, writes, deduplicated

    def _check_write(
        self, address: int, data: bytes, before: _Snapshot, after: _Snapshot, deduplicated: bool
    ) -> None:
        """Every per-operation law of one serviced write."""
        self._check_write_conservation(before, after, deduplicated)
        self._check_device_write_conservation(before, after)
        self._check_counter_monotonic(address)
        if self.check_data:
            self._check_write_round_trip(address, data)
            self._image[address] = data

    def _check_read(self, address: int, before: _Snapshot, after: _Snapshot) -> None:
        """A serviced read changed nothing it should not, and returned the
        shadow image's data."""
        if after.reads_requested != before.reads_requested + 1:
            raise InvariantViolation(
                "read did not increment reads_requested by exactly 1 "
                f"({before.reads_requested} -> {after.reads_requested})"
            )
        if after.writes_requested != before.writes_requested:
            raise InvariantViolation("a read mutated the write counters")
        stored_delta = after.writes_stored - before.writes_stored
        if stored_delta:
            raise InvariantViolation(f"a read stored {stored_delta} data line(s)")
        # A read may still legally evict dirty metadata (writebacks).
        self._check_device_write_conservation(before, after)
        if self.check_data and not self._trusts_fingerprint:
            expected = self._image.get(address)
            if expected is not None:
                data = self.inner._plaintext(address)
                if data != expected:
                    raise InvariantViolation(
                        f"read of line {address} returned corrupted data "
                        f"(first byte {data[:1]!r} != expected {expected[:1]!r})"
                    )

    # -- deep verification -----------------------------------------------------

    def verify(self) -> None:
        """Run the full structural sweep; raises :class:`InvariantViolation`."""
        self.deep_checks += 1
        snapshot = self._snapshot()
        if snapshot.writes_requested != snapshot.writes_deduplicated + snapshot.writes_stored:
            raise InvariantViolation(
                "cumulative write conservation broken: "
                f"{snapshot.writes_requested} requested != "
                f"{snapshot.writes_deduplicated} eliminated + "
                f"{snapshot.writes_stored} stored"
            )
        if snapshot.nvm_writes != (
            snapshot.writes_stored + snapshot.metadata_writebacks + snapshot.extra_device_writes
        ):
            raise InvariantViolation(
                "cumulative device-write conservation broken: "
                f"{snapshot.nvm_writes} NVM writes != {snapshot.writes_stored} stored "
                f"+ {snapshot.metadata_writebacks} metadata writebacks "
                f"+ {snapshot.extra_device_writes} background re-encryptions"
            )

        index = getattr(self.inner, "index", None)
        if index is not None:
            try:
                index.verify()
            except Exception as error:
                raise InvariantViolation(f"dedup index inconsistent: {error}") from error
            self._sweep_counters(index)

        metadata = getattr(self.inner, "metadata", None)
        if metadata is not None:
            try:
                metadata.verify()
            except Exception as error:
                raise InvariantViolation(f"metadata system inconsistent: {error}") from error

    def close(self, now_ns: float = 0.0) -> None:
        """Final sweep: flush metadata (when supported) and verify."""
        flush = getattr(self.inner, "flush_metadata", None)
        if callable(flush):
            flush(now_ns)
        self.verify()

    # -- per-operation checks ---------------------------------------------------

    def _check_write_conservation(
        self, before: _Snapshot, after: _Snapshot, deduplicated: bool
    ) -> None:
        requested = after.writes_requested - before.writes_requested
        eliminated = after.writes_deduplicated - before.writes_deduplicated
        stored = after.writes_stored - before.writes_stored
        if requested != 1:
            raise InvariantViolation(
                f"write incremented writes_requested by {requested}, expected 1"
            )
        if eliminated + stored != 1:
            raise InvariantViolation(
                "write conservation broken: one request produced "
                f"{eliminated} elimination(s) + {stored} store(s)"
            )
        if deduplicated != (eliminated == 1):
            raise InvariantViolation(
                f"the kernel's deduplicated={deduplicated} disagrees with the "
                f"stats delta (eliminated={eliminated})"
            )

    def _check_device_write_conservation(self, before: _Snapshot, after: _Snapshot) -> None:
        device = after.nvm_writes - before.nvm_writes
        accounted = (
            (after.writes_stored - before.writes_stored)
            + (after.metadata_writebacks - before.metadata_writebacks)
            + (after.extra_device_writes - before.extra_device_writes)
        )
        if device != accounted:
            raise InvariantViolation(
                f"device-write conservation broken: {device} NVM write(s) this "
                f"operation but only {accounted} accounted for "
                "(stored + metadata writebacks + background re-encryptions)"
            )

    def _check_counter_monotonic(self, logical: int) -> None:
        index = getattr(self.inner, "index", None)
        if index is None:
            return
        physical = index.physical_of(logical)
        if physical is None:
            return
        counter = index.peek_counter(physical)
        previous = self._counter_shadow.get(physical, 0)
        if counter < previous:
            raise InvariantViolation(
                f"encryption counter of line {physical} decreased "
                f"({previous} -> {counter}): one-time pad reuse"
            )
        self._counter_shadow[physical] = counter

    def _check_write_round_trip(self, logical: int, plaintext: bytes) -> None:
        index = getattr(self.inner, "index", None)
        cme = getattr(self.inner, "cme", None)
        if index is None or cme is None or self._trusts_fingerprint:
            return
        physical = index.physical_of(logical)
        if physical is None:
            raise InvariantViolation(f"write of line {logical} left no address mapping")
        counter = index.peek_counter(physical)
        stored = self.nvm.peek(physical)
        recovered = cme.decrypt(stored, physical, counter)
        if recovered != plaintext:
            raise InvariantViolation(
                f"decrypt∘encrypt round-trip failed for logical line {logical} "
                f"(physical {physical}, counter {counter})"
            )

    def _sweep_counters(self, index) -> None:  # noqa: ANN001 - duck-typed DedupIndex
        for physical, counter in index.counter_items():
            previous = self._counter_shadow.get(physical, 0)
            if counter < previous:
                raise InvariantViolation(
                    f"encryption counter of line {physical} decreased "
                    f"({previous} -> {counter}): one-time pad reuse"
                )
            self._counter_shadow[physical] = counter

    # -- bookkeeping -----------------------------------------------------------

    def _tick(self) -> None:
        self.operations += 1
        if self.deep_check_interval and self.operations % self.deep_check_interval == 0:
            self.verify()

    def _snapshot(self) -> _Snapshot:
        stats = self.inner.stats
        extra = sum(
            int(getattr(self.inner, name, 0)) for name in _EXTRA_DEVICE_WRITE_COUNTERS
        )
        return _Snapshot(
            writes_requested=stats.writes_requested,
            writes_deduplicated=stats.writes_deduplicated,
            writes_stored=stats.writes_stored,
            reads_requested=stats.reads_requested,
            metadata_writebacks=stats.metadata_writebacks,
            nvm_writes=self.nvm.writes,
            extra_device_writes=extra,
        )
