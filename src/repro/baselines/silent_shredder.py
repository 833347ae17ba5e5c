"""Silent Shredder: zero-line write elimination (Awad et al., ASPLOS'16).

The paper's closest line-level competitor (§II-C, §V): data *shredding*
(zeroing) dominates some workloads, so Silent Shredder cancels writes of
all-zero lines by manipulating counters instead of touching the array, and
services reads of shredded lines without an NVM access.  It eliminates only
~16 % of writes on average across the paper's 20 applications (Fig. 2)
because most duplicate lines are non-zero — the observation motivating
DeWrite.

Implementation: a thin extension of the traditional secure-NVM controller
with a shredded-line set: its request bodies are the parent's CME bodies
plus the two shortcut arms.  The shredded state piggybacks on the counter
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

    def _request_bodies(self, batch, columns):
        """The parent's CME bodies with the zero-line shortcut arms.

        An all-zero write is cancelled: one counter-cache touch (the
        shredded state rides the counter metadata) marks the line shredded.
        A read of a shredded line touches the counter and zero-fills from
        that state, with no array read.  Every other request is the
        parent's write or read, and a non-zero write unshreds its line.  A
        shredded write's :attr:`request_record` counter is None.
        """
        cme_write, cme_read, finish = super()._request_bodies(batch, columns)
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        stats = self.stats
        shredded = self._shredded
        zero_line = self._zero_line
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record
        touch_counter = self._access_counter
        xor_ns = self.config.xor_latency_ns
        stage_on = self.stages.enabled
        st_wmeta = columns["write.meta"]
        st_rmeta = columns["read.metadata"]
        st_rcrypto = columns["read.crypto"]

        def write(req, address, arrival):
            slot = slots[req]
            if payload[slot : slot + line_size] != zero_line:
                complete = cme_write(req, address, arrival)
                shredded.discard(address)
                return complete
            # All-zero: cancel the write; one counter manipulation.
            stats.writes_requested += 1
            stats.writes_deduplicated += 1
            complete = arrival + touch_counter(address, True, arrival)
            shredded.add(address)
            if stage_on:
                st_wmeta.append(complete - arrival)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=True, latency_ns=complete - arrival)
            if trace_on:
                tracer.span("write.meta", arrival, complete, shredded=True)
                tracer.span("write", arrival, complete, deduplicated=True)
            if record is not None:
                record.append((req, complete, None))
            return complete

        def read(req, address, arrival):
            if address not in shredded:
                return cme_read(req, address, arrival)
            # Shredded: zero-fill from counter state, no array read.
            stats.reads_requested += 1
            issue = arrival + touch_counter(address, False, arrival)
            rnow = issue + xor_ns
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rcrypto.append(rnow - issue)
            if trace_on:
                tracer.span("read.metadata", arrival, issue, redirected=False)
                tracer.span("read.crypto", issue, rnow, decrypted=False)
                tracer.span("read", arrival, rnow, shredded=True)
            return rnow

        return write, read, finish

    @property
    def shredded_lines(self) -> int:
        """Lines currently in the shredded (all-zero) state."""
        return len(self._shredded)
