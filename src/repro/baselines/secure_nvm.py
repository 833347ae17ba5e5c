"""Traditional secure NVM: counter-mode encryption, no deduplication.

This is the paper's baseline system (§IV-A): every line write is encrypted
under its per-line counter and written to the array; every read fetches the
counter (cached on-chip), overlaps OTP generation with the array access and
XORs.  The counter table lives in a dedicated NVM region — no colocation —
and its hot blocks sit in the same 2 MB-class metadata cache DeWrite reuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.interface import MemoryController
from repro.core.metadata_cache import MetadataCache
from repro.core.stats import DeWriteStats
from repro.crypto.counter_mode import CounterModeEngine
from repro.crypto.otp import SplitmixPadGenerator
from repro.nvm.memory import NvmMainMemory

if TYPE_CHECKING:
    from repro.crypto.split_counter import SplitCounterStore


@dataclass(frozen=True)
class SecureNvmConfig:
    """Baseline controller parameters (matching DeWrite's constants).

    ``use_split_counters`` enables the major/minor split-counter scheme
    with overflow-triggered page re-encryption (see
    :mod:`repro.crypto.split_counter`); the default single 28-bit counter
    matches the paper's assumption and never overflows at simulation scale.
    """

    aes_latency_ns: float = 96.0
    xor_latency_ns: float = 0.5
    metadata_decrypt_ns: float = 96.0
    counter_bits: int = 28
    counter_cache_bytes: int = 2 * 1024 * 1024
    counters_per_block: int = 256
    use_split_counters: bool = False
    minor_counter_bits: int = 28
    lines_per_page: int = 16

    @property
    def counter_cache_blocks(self) -> int:
        """Blocks the counter cache holds."""
        return self.counter_cache_bytes * 8 // (self.counter_bits * self.counters_per_block)


class TraditionalSecureNvmController(MemoryController):
    """CME-only memory controller: the paper's comparison system."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm)
        self.config = config if config is not None else SecureNvmConfig()
        self.cme = cme if cme is not None else CounterModeEngine()
        self.stats = DeWriteStats()
        self._counters: dict[int, int] = {}
        self._split: SplitCounterStore | None = None
        if self.config.use_split_counters:
            from repro.crypto.split_counter import SplitCounterStore

            self._split = SplitCounterStore(
                minor_bits=self.config.minor_counter_bits,
                lines_per_page=self.config.lines_per_page,
            )
        self._written: set[int] = set()
        self.page_reencryptions = 0
        self.reencrypted_lines = 0
        self.counter_cache = MetadataCache(
            "counters", self.config.counter_cache_blocks, self.config.counters_per_block
        )
        # Counter table region at the top of the device.
        org = nvm.config.organization
        line_bits = org.line_size_bytes * 8
        counter_lines = max(
            1, (org.total_lines * self.config.counter_bits + line_bits - 1) // line_bits
        )
        self.data_lines = org.total_lines - counter_lines
        self._counter_base = self.data_lines
        self._counter_lines = counter_lines
        self._payloads = SplitmixPadGenerator(b"\x3c" * 16)
        self._payload_version = 0

    # -- request pipeline ------------------------------------------------------

    def _plaintext(self, address: int) -> bytes:
        """The plaintext line ``address`` holds now (functional, untimed)."""
        if self._split is not None:
            counter = self._split.counter_of(address) if address in self._written else None
        else:
            counter = self._counters.get(address)
        if counter is None:
            return bytes(self.line_size)
        return self.cme.decrypt(self.nvm.peek(address), address, counter)

    def _reencrypt_page(self, overflow, triggering_line: int, now_ns: float) -> None:
        """Service a minor-counter overflow: re-encrypt the whole page
        under the bumped major counter (posted; the triggering write has
        already gone out under the new counter)."""
        self.page_reencryptions += 1
        for member in overflow.lines:
            if member == triggering_line or member not in self._written:
                continue
            stored = self.nvm.read(member, now_ns)
            plaintext = self.cme.decrypt(stored.data, member, overflow.old_counters[member])
            fresh = self.cme.seal(plaintext, member, self._split.counter_of(member))
            self.nvm.energy.add_aes_line()
            self.nvm.write_complete_ns(member, fresh, stored.complete_ns)
            self.reencrypted_lines += 1
            now_ns = stored.complete_ns

    def _request_bodies(self, batch):
        """The CME write and read bodies over ``batch``, and the finish step.

        A write seals its line in the integer domain and programs it
        through the device's integer write; split counters bump and
        re-encrypt pages in line.  Counter-cache touches take the resident
        block's hit arm inline.  A traced ``*.nvm`` span reads its bank
        wait off the device's ``last_start_ns``.  A write's
        :attr:`request_record` fact is the line's counter after it.
        """
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        stats = self.stats
        split = self._split
        counters = self._counters
        written_set = self._written
        # Split mode keeps no per-line counter dict: exactly the written
        # lines hold a counter there.
        has_counter = counters if split is None else written_set
        seal = self.cme.seal
        nvm = self.nvm
        energy = nvm.energy
        aes_line_nj = energy.aes_line_nj
        nvm_write_done = nvm.write_complete_ns
        nvm_read_done = nvm.read_complete_ns
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record
        cache = self.counter_cache
        cache_blocks = cache._blocks
        per_block = cache.entries_per_block
        aes_ns = self.config.aes_latency_ns
        xor_ns = self.config.xor_latency_ns

        stages = self.stages
        stage_on = stages.enabled
        st_wcrypto: list[float] = []
        st_wnvm: list[float] = []
        st_rmeta: list[float] = []
        st_rnvm: list[float] = []
        st_rcrypto: list[float] = []

        writes_requested = stats.writes_requested
        writes_stored = stats.writes_stored
        reads_requested = stats.reads_requested

        def write(req, address, arrival):
            nonlocal writes_requested, writes_stored
            slot = slots[req]
            line = payload[slot : slot + line_size]
            if len(line) != line_size:
                self._check_line(line)
            writes_requested += 1
            writes_stored += 1
            block = address // per_block
            if block in cache_blocks:
                cache.hits += 1
                cache_blocks.move_to_end(block)
                cache_blocks[block] = True
                if timeline_on:
                    timeline.record_metadata(arrival, hit=True)
                cnow = arrival
            else:
                cnow = arrival + self._access_counter(address, True, arrival)
            if split is None:
                counter = counters.get(address, 0) + 1
                counters[address] = counter
                overflow = None
            else:
                counter, overflow = split.advance(address)
            sealed = seal(line, address, counter)
            energy.aes_nj += aes_line_nj
            issue = cnow + aes_ns
            complete = nvm_write_done(address, sealed, issue)
            if trace_on:
                # A page re-encryption moves the device's last start.
                wait_ns = nvm.last_start_ns - issue
            written_set.add(address)
            if overflow is not None:
                self._reencrypt_page(overflow, address, complete)
            if stage_on:
                st_wcrypto.append(issue - cnow)
                st_wnvm.append(complete - issue)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=False, latency_ns=complete - arrival)
            if trace_on:
                tracer.span("write.crypto", cnow, issue)
                tracer.span("write.nvm", issue, complete, wait_ns=wait_ns)
                tracer.span("write", arrival, complete, deduplicated=False)
            if record is not None:
                record.append((req, complete, counter))
            return complete

        def read(req, address, arrival):
            nonlocal reads_requested
            reads_requested += 1
            block = address // per_block
            if block in cache_blocks:
                cache.hits += 1
                cache_blocks.move_to_end(block)
                if timeline_on:
                    timeline.record_metadata(arrival, hit=True)
                issue = arrival
            else:
                issue = arrival + self._access_counter(address, False, arrival)
            # The plaintext is rebuilt only by read(), functionally; the body
            # charges the OTP's AES energy and the XOR latency.
            decrypted = address in has_counter
            if decrypted:
                energy.aes_nj += aes_line_nj
            rc = nvm_read_done(address, issue)
            rnow = rc + xor_ns
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(rc - issue)
                st_rcrypto.append(rnow - rc)
            if trace_on:
                tracer.span("read.metadata", arrival, issue, redirected=False)
                tracer.span("read.nvm", issue, rc, wait_ns=nvm.last_start_ns - issue)
                tracer.span("read.crypto", rc, rnow, decrypted=decrypted)
                tracer.span("read", arrival, rnow, redirected=False)
            return rnow

        def finish(st_write, st_read):
            stats.writes_requested = writes_requested
            stats.writes_stored = writes_stored
            stats.reads_requested = reads_requested
            if stage_on:
                record_many = stages.record_many
                record_many("write.crypto", st_wcrypto)
                record_many("write.nvm", st_wnvm)
                record_many("write", st_write)
                record_many("read.metadata", st_rmeta)
                record_many("read.nvm", st_rnvm)
                record_many("read.crypto", st_rcrypto)
                record_many("read", st_read)

        return write, read, finish

    # -- counter-cache plumbing ---------------------------------------------

    def _access_counter(self, address: int, write: bool, now_ns: float) -> float:
        """Touch the counter cache; returns blocking latency added."""
        hit, block, evicted = self.counter_cache.access(address, write)
        if self.timeline.enabled:
            self.timeline.record_metadata(now_ns, hit=hit)
        extra = 0.0
        if not hit:
            line = self._counter_line_for(block)
            fetched = self.nvm.read_complete_ns(line, now_ns)
            self.stats.metadata_reads += 1
            extra = (fetched - now_ns) + self.config.metadata_decrypt_ns
        if evicted is not None:
            self._writeback_counters(evicted, now_ns)
        return extra

    def _writeback_counters(self, block: int, now_ns: float) -> None:
        self._payload_version += 1
        line = self._counter_line_for(block)
        payload = self._payloads.pad_int(line, self._payload_version, self.line_size)
        self.nvm.write_complete_ns(line, payload, now_ns)
        self.stats.metadata_writebacks += 1

    def _counter_line_for(self, block: int) -> int:
        return self._counter_base + block % self._counter_lines
