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

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
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

    def _request_bodies(self, batch):
        """The CME bodies with the zero-line shortcut inlined.

        Non-zero writes and reads of live lines take the parent's CME
        pipeline; all-zero writes and reads of shredded lines are the
        counter-manipulation shortcut.  Both touch the line's counter
        first.  Observers are fed as in the parent's bodies; a write's
        :attr:`request_record` facts are the line's counter after it
        (None when shredded) and whether it was shredded.
        """
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
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
        touch_counter = self._access_counter
        aes_ns = self.config.aes_latency_ns
        xor_ns = self.config.xor_latency_ns

        stages = self.stages
        stage_on = stages.enabled
        st_wmeta: list[float] = []
        st_wcrypto: list[float] = []
        st_wnvm: list[float] = []
        st_rmeta: list[float] = []
        st_rnvm: list[float] = []
        st_rcrypto: list[float] = []

        def write(req, address, arrival):
            slot = slots[req]
            line = payload[slot : slot + line_size]
            if len(line) != line_size:
                self._check_line(line)
            stats.writes_requested += 1
            cnow = arrival + touch_counter(address, True, arrival)
            eliminated = line == zero_line
            if not eliminated:
                # Non-zero: the parent's CME write pipeline.
                shredded.discard(address)
                stats.writes_stored += 1
                counter = counters.get(address, 0) + 1
                counters[address] = counter
                sealed = seal(line, address, counter)
                add_aes_line()
                issue = cnow + aes_ns
                if trace_on:
                    written = nvm.write(address, sealed.to_bytes(line_size, "little"), issue)
                    complete = written.complete_ns
                else:
                    complete = nvm_write_done(address, sealed, issue)
                written_set.add(address)
                if stage_on:
                    st_wcrypto.append(issue - cnow)
                    st_wnvm.append(complete - issue)
            else:
                # All-zero: cancel the write; one counter manipulation.
                stats.writes_deduplicated += 1
                shredded.add(address)
                complete = cnow
                if stage_on:
                    st_wmeta.append(complete - arrival)
            if timeline_on:
                timeline.record_write(
                    arrival, deduplicated=eliminated, latency_ns=complete - arrival
                )
            if trace_on:
                if eliminated:
                    tracer.span("write.meta", arrival, complete, shredded=True)
                else:
                    tracer.span("write.crypto", cnow, issue)
                    tracer.span("write.nvm", issue, complete, wait_ns=written.wait_ns)
                tracer.span("write", arrival, complete, deduplicated=eliminated)
            if record is not None:
                record.append((req, complete, None if eliminated else counter, eliminated))
            return complete

        def read(req, address, arrival):
            stats.reads_requested += 1
            issue = arrival + touch_counter(address, False, arrival)
            if stage_on:
                st_rmeta.append(issue - arrival)
            zero_fill = address in shredded
            if zero_fill:
                # Shredded: zero-fill from counter state, no array read.
                rnow = issue + xor_ns
                if stage_on:
                    st_rcrypto.append(rnow - issue)
            else:
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
                    st_rnvm.append(rc - issue)
                    st_rcrypto.append(rnow - rc)
            if trace_on:
                tracer.span("read.metadata", arrival, issue, redirected=False)
                if zero_fill:
                    tracer.span("read.crypto", issue, rnow, decrypted=False)
                    tracer.span("read", arrival, rnow, shredded=True)
                else:
                    tracer.span("read.nvm", issue, rc, wait_ns=fetched.wait_ns)
                    tracer.span("read.crypto", rc, rnow, decrypted=decrypted)
                    tracer.span("read", arrival, rnow, redirected=False)
            return rnow

        def finish(st_write, st_read):
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

        return write, read, finish

    @property
    def shredded_lines(self) -> int:
        """Lines currently in the shredded (all-zero) state."""
        return len(self._shredded)
