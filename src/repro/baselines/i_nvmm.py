"""i-NVMM: incremental encryption of non-volatile main memory (paper §V).

i-NVMM (Chhabra & Solihin, ISCA'11) keeps *hot* data unencrypted in the
NVM for speed and encrypts pages only as they go cold (and everything at
shutdown).  The paper's §V criticism is architectural: unencrypted hot
lines traverse the memory bus in plaintext, so i-NVMM defends against the
stolen-DIMM attack but **not** bus snooping — which is why DeWrite
encrypts everything on the CPU side instead.

The model: an LRU hot set of lines.  Hot writes/reads skip the AES
latency and energy entirely; a line falling out of the hot set is
encrypted in place at eviction time (one background read-modify-write).
``plaintext_bus_transfers`` counts every unencrypted line that crossed
the bus — the quantified security exposure the comparison bench reports.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.baselines.secure_nvm import SecureNvmConfig, TraditionalSecureNvmController
from repro.crypto.counter_mode import CounterModeEngine
from repro.nvm.memory import NvmMainMemory


class INvmmController(TraditionalSecureNvmController):
    """Secure NVM with i-NVMM-style hot-data plaintext optimisation."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: SecureNvmConfig | None = None,
        cme: CounterModeEngine | None = None,
        hot_set_lines: int = 4096,
    ) -> None:
        super().__init__(nvm, config, cme)
        if self.config.use_split_counters:
            raise ValueError("i-NVMM does not support split counters")
        if hot_set_lines < 1:
            raise ValueError("hot set must hold at least one line")
        self.hot_set_lines = hot_set_lines
        self._hot: OrderedDict[int, None] = OrderedDict()
        self.plaintext_bus_transfers = 0
        self.cold_encryptions = 0

    def _encrypt_cold_line(self, address: int, now_ns: float) -> None:
        """A line went cold: encrypt it in place (background RMW)."""
        if address not in self._written:
            return
        stored = self.nvm.read(address, now_ns)
        counter = self._counters.get(address, 0) + 1
        self._counters[address] = counter
        sealed = self.cme.seal(stored.data, address, counter)
        self.nvm.energy.add_aes_line()
        self.nvm.write_complete_ns(address, sealed, stored.complete_ns)
        self.cold_encryptions += 1

    def _plaintext(self, address: int) -> bytes:
        if address in self._hot:
            return self.nvm.peek(address)
        return super()._plaintext(address)

    def _request_bodies(self, batch, columns):
        """The parent's CME bodies with i-NVMM's plaintext arms.

        Every write makes its line hot (the LRU victim is encrypted in
        place by :meth:`_encrypt_cold_line`) and goes to the array in
        plaintext, skipping AES.  A hot read skips decryption; a cold read
        is the parent's CME read.  A write's :attr:`request_record` facts
        are the evicted victim (None when nothing went cold) and its new
        counter.
        """
        _, cme_read, finish = super()._request_bodies(batch, columns)
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        stats = self.stats
        counters = self._counters
        written_set = self._written
        hot = self._hot
        hot_cap = self.hot_set_lines
        nvm_write_done = self.nvm.write_complete_ns
        nvm_read_done = self.nvm.read_complete_ns
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record
        touch_counter = self._access_counter
        stage_on = self.stages.enabled
        st_wnvm = columns["write.nvm"]
        st_rmeta = columns["read.metadata"]
        st_rnvm = columns["read.nvm"]

        def write(req, address, arrival):
            slot = slots[req]
            line = payload[slot : slot + line_size]
            if len(line) != line_size:
                self._check_line(line)
            # Hot-set touch: at most one LRU victim goes cold.
            victim = None
            if address in hot:
                hot.move_to_end(address)
            else:
                hot[address] = None
                if len(hot) > hot_cap:
                    victim, _ = hot.popitem(last=False)
                    self._encrypt_cold_line(victim, arrival)
            stats.writes_requested += 1
            stats.writes_stored += 1
            self.plaintext_bus_transfers += 1
            wnow = arrival + touch_counter(address, True, arrival)
            # Plaintext at rest: no AES, the line's own value.
            complete = nvm_write_done(address, int.from_bytes(line, "little"), wnow)
            written_set.add(address)
            # Hot lines are counter-less, so a stale counter can never be
            # mistaken for the key of a plaintext line.
            counters.pop(address, None)
            if stage_on:
                st_wnvm.append(complete - wnow)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=False, latency_ns=complete - arrival)
            if trace_on:
                tracer.span("write.nvm", wnow, complete, encrypted=False)
                tracer.span("write", arrival, complete, deduplicated=False)
            if record is not None:
                record.append((req, complete, victim, counters.get(victim)))
            return complete

        def read(req, address, arrival):
            if address not in hot:
                return cme_read(req, address, arrival)
            # Hot read: plaintext at rest, no decryption, no XOR.
            stats.reads_requested += 1
            issue = arrival + touch_counter(address, False, arrival)
            self.plaintext_bus_transfers += 1
            rnow = nvm_read_done(address, issue)
            hot.move_to_end(address)
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(rnow - issue)
            if trace_on:
                tracer.span("read.metadata", arrival, issue, redirected=False)
                tracer.span("read.nvm", issue, rnow)
                tracer.span("read", arrival, rnow, hot=True)
            return rnow

        return write, read, finish

    def shutdown(self, now_ns: float) -> int:
        """Encrypt every remaining hot line (the power-down sweep)."""
        victims = list(self._hot)
        self._hot.clear()
        for address in victims:
            self._encrypt_cold_line(address, now_ns)
        return len(victims)
