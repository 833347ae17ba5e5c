"""Silent Shredder: zero-line write elimination (Awad et al., ASPLOS'16).

The paper's closest line-level competitor (§II-C, §V): data *shredding*
(zeroing) dominates some workloads, so Silent Shredder cancels writes of
all-zero lines by manipulating counters instead of touching the array, and
services reads of shredded lines without an NVM access.  It eliminates only
~16 % of writes on average across the paper's 20 applications (Fig. 2)
because most duplicate lines are non-zero — the observation motivating
DeWrite.

Implementation: a thin extension of the traditional secure-NVM controller
with a shredded-line set; the shredded state piggybacks on the counter
metadata (as in the original design), so its cache traffic reuses the
counter cache.
"""

from __future__ import annotations

from heapq import heappop, heappush

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.core.batching import INF, NO_LIMIT, merge_state
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class SilentShredderController(TraditionalSecureNvmController):
    """Secure NVM controller that silently drops all-zero line writes."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm, config, cme)
        if self.config.use_split_counters:
            raise ValueError("Silent Shredder does not support split counters")
        self._zero_line = bytes(self.line_size)
        self._shredded: set[int] = set()

    def _plaintext(self, address: int) -> bytes:
        if address in self._shredded:
            return self._zero_line
        return super()._plaintext(address)

    def _service_stream(self, batch, cursor, max_requests=None):
        """The CME pipeline with the zero-line shortcut inlined.

        Non-zero writes and reads of live lines take the parent's CME
        pipeline; all-zero writes and reads of shredded lines are the
        counter-manipulation shortcut.  Float arithmetic runs in request
        order so reports stay byte-identical.  Observers and the request
        record are fed as in the parent kernel; a write's facts are the
        line's counter after it (None when shredded) and whether it was
        shredded.
        """
        ops = batch.ops
        addresses = batch.addresses
        gaps = batch.gaps
        persistent = batch.persistent
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        npi = cursor.ns_per_instruction
        exposure = cursor.read_stall_exposure
        clock = cursor.clock_ghz
        base_cpi = cursor.base_cpi

        instructions = cursor.instructions
        stall_cycles = cursor.stall_cycles
        compute_cycles = cursor.compute_cycles
        issued = reads = writes = deduplicated = 0

        stats = self.stats
        counters = self._counters
        written_set = self._written
        shredded = self._shredded
        zero_line = self._zero_line
        seal = self.cme.seal
        nvm = self.nvm
        add_aes_line = nvm.energy.add_aes_line
        nvm_write_done = nvm.write_complete_ns
        nvm_read_done = nvm.read_complete_ns
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record
        cache = self.counter_cache
        # A timeline counts every counter-cache touch (see the parent).
        cache_blocks = {} if timeline_on else cache._blocks
        per_block = cache.entries_per_block
        aes_ns = self.config.aes_latency_ns
        xor_ns = self.config.xor_latency_ns
        data_lines = self.data_lines

        # Summary-mode stage accounting (columnar, flushed per batch).
        stages = self.stages
        stage_on = stages.enabled
        if stage_on:
            st_wmeta: list[float] = []
            st_wcrypto: list[float] = []
            st_wnvm: list[float] = []
            st_write: list[float] = []
            st_rmeta: list[float] = []
            st_rnvm: list[float] = []
            st_rcrypto: list[float] = []
            st_read: list[float] = []

        add_write_latency = stats.write_latency.add
        add_read_latency = stats.read_latency.add

        active = cursor.active
        streams = cursor.streams
        positions = cursor.positions
        core_time = cursor.core_time
        # Run the earliest stream until its next arrival passes the
        # runner-up's (ties go to the lower rank, as in the scalar loop).
        if len(active) > 1:
            heap, rank, core, limit, limit_rank = merge_state(cursor)
        else:  # merge_state's lone-stream state, without the call
            (core,) = active
            heap, rank, limit, limit_rank = None, 0, INF, 0
        while True:
            stream = streams[core]
            position = positions[core]
            length = len(stream)
            now = core_time[core]
            while position < length and issued != max_requests:
                req = stream[position]
                gap = gaps[req]
                arrival = now + gap * npi
                if arrival >= limit and (arrival > limit or rank > limit_rank):
                    heappush(heap, (arrival, rank, core))
                    break
                instructions += gap
                compute_cycles += gap * base_cpi
                address = addresses[req]
                block = address // per_block
                if ops[req]:
                    slot = slots[req]
                    line = payload[slot : slot + line_size]
                    if len(line) != line_size:
                        self._check_line(line)
                    if not 0 <= address < data_lines:
                        self._check_data_address(address)
                    stats.writes_requested += 1
                    if line != zero_line:
                        # Non-zero: the parent's CME write pipeline.
                        shredded.discard(address)
                        stats.writes_stored += 1
                        if block in cache_blocks:
                            cache.hits += 1
                            cache_blocks.move_to_end(block)
                            cache_blocks[block] = True
                            cnow = arrival
                        else:
                            cnow = arrival + self._access_counter(address, True, arrival)
                        counter = counters.get(address, 0) + 1
                        counters[address] = counter
                        sealed = seal(line, address, counter)
                        add_aes_line()
                        issue = cnow + aes_ns
                        if trace_on:
                            written = nvm.write(
                                address, sealed.to_bytes(line_size, "little"), issue
                            )
                            complete = written.complete_ns
                        else:
                            complete = nvm_write_done(address, sealed, issue)
                        written_set.add(address)
                        eliminated = False
                        if stage_on:
                            st_wcrypto.append(issue - cnow)
                            st_wnvm.append(complete - issue)
                    else:
                        # All-zero: cancel the write; one counter manipulation.
                        stats.writes_deduplicated += 1
                        deduplicated += 1
                        shredded.add(address)
                        if block in cache_blocks:
                            cache.hits += 1
                            cache_blocks.move_to_end(block)
                            cache_blocks[block] = True
                            complete = arrival
                        else:
                            complete = arrival + self._access_counter(address, True, arrival)
                        eliminated = True
                        if stage_on:
                            st_wmeta.append(complete - arrival)
                    latency = complete - arrival
                    if stage_on:
                        st_write.append(latency)
                    add_write_latency(latency)
                    if timeline_on:
                        timeline.record_write(arrival, deduplicated=eliminated, latency_ns=latency)
                    if trace_on:
                        if eliminated:
                            tracer.span("write.meta", arrival, complete, shredded=True)
                        else:
                            tracer.span("write.crypto", cnow, issue)
                            tracer.span("write.nvm", issue, complete, wait_ns=written.wait_ns)
                        tracer.span("write", arrival, complete, deduplicated=eliminated)
                    if record is not None:
                        record.append((req, complete, None if eliminated else counter, eliminated))
                    writes += 1
                    if persistent[req]:
                        now = complete
                        stall_cycles += latency * clock
                    else:
                        now = arrival
                else:
                    if not 0 <= address < data_lines:
                        self._check_data_address(address)
                    stats.reads_requested += 1
                    zero_fill = address in shredded
                    if zero_fill:
                        # Shredded: zero-fill from counter state, no array read.
                        if block in cache_blocks:
                            cache.hits += 1
                            cache_blocks.move_to_end(block)
                            issue = arrival
                        else:
                            issue = arrival + self._access_counter(address, False, arrival)
                        rnow = issue + xor_ns
                        if stage_on:
                            st_rmeta.append(issue - arrival)
                            st_rcrypto.append(rnow - issue)
                    else:
                        if block in cache_blocks:
                            cache.hits += 1
                            cache_blocks.move_to_end(block)
                            issue = arrival
                        else:
                            issue = arrival + self._access_counter(address, False, arrival)
                        decrypted = address in counters
                        if decrypted:
                            add_aes_line()
                        if trace_on:
                            fetched = nvm.read(address, issue)
                            rc = fetched.complete_ns
                        else:
                            rc = nvm_read_done(address, issue)
                        rnow = rc + xor_ns
                        if stage_on:
                            st_rmeta.append(issue - arrival)
                            st_rnvm.append(rc - issue)
                            st_rcrypto.append(rnow - rc)
                    latency = rnow - arrival
                    if stage_on:
                        st_read.append(latency)
                    add_read_latency(latency)
                    if timeline_on:
                        timeline.record_read(arrival, latency_ns=latency)
                    if trace_on:
                        tracer.span("read.metadata", arrival, issue, redirected=False)
                        if zero_fill:
                            tracer.span("read.crypto", issue, rnow, decrypted=False)
                            tracer.span("read", arrival, rnow, shredded=True)
                        else:
                            tracer.span("read.nvm", issue, rc, wait_ns=fetched.wait_ns)
                            tracer.span("read.crypto", rc, rnow, decrypted=decrypted)
                            tracer.span("read", arrival, rnow, redirected=False)
                    if record is not None:
                        record.append((req, rnow))
                    exposed = latency * exposure
                    now = arrival + exposed
                    stall_cycles += exposed * clock
                    reads += 1
                issued += 1
                position += 1
            positions[core] = position
            core_time[core] = now
            if position >= length:
                active.discard(core)
            if not heap or issued == max_requests:
                break
            _, rank, core = heappop(heap)
            limit, limit_rank, _ = heap[0] if heap else NO_LIMIT

        if stage_on:
            record_many = stages.record_many
            record_many("write.meta", st_wmeta)
            record_many("write.crypto", st_wcrypto)
            record_many("write.nvm", st_wnvm)
            record_many("write", st_write)
            record_many("read.metadata", st_rmeta)
            record_many("read.nvm", st_rnvm)
            record_many("read.crypto", st_rcrypto)
            record_many("read", st_read)
        if issued:
            self._complete_ns = complete if ops[stream[position - 1]] else rnow

        cursor.instructions = instructions
        cursor.stall_cycles = stall_cycles
        cursor.compute_cycles = compute_cycles
        return issued, reads, writes, deduplicated

    @property
    def shredded_lines(self) -> int:
        """Lines currently in the shredded (all-zero) state."""
        return len(self._shredded)
