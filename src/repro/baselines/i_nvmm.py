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

    def _request_bodies(self, batch):
        """The i-NVMM bodies: hot lines in plaintext, cold ones under CME.

        Every write makes its line hot (the LRU victim is encrypted in
        place by :meth:`_encrypt_cold_line`) and goes to the array in
        plaintext, skipping AES; hot reads skip decryption, cold reads take
        the parent's CME read pipeline.  Observers are fed as in the
        parent's bodies; a write's :attr:`request_record` facts are the
        evicted victim (None when nothing went cold) and its new counter.
        """
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size
        stats = self.stats
        counters = self._counters
        written_set = self._written
        hot = self._hot
        hot_cap = self.hot_set_lines
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
        xor_ns = self.config.xor_latency_ns

        stages = self.stages
        stage_on = stages.enabled
        st_wnvm: list[float] = []
        st_rmeta: list[float] = []
        st_rnvm: list[float] = []
        st_rcrypto: list[float] = []

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
            stats.reads_requested += 1
            hot_read = address in hot
            issue = arrival + touch_counter(address, False, arrival)
            if stage_on:
                st_rmeta.append(issue - arrival)
            if hot_read:
                # Hot read: plaintext at rest, no decryption, no XOR.
                self.plaintext_bus_transfers += 1
                rnow = nvm_read_done(address, issue)
                hot.move_to_end(address)
                if stage_on:
                    st_rnvm.append(rnow - issue)
            else:
                # Cold read: the parent's CME read pipeline.
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
                if hot_read:
                    tracer.span("read.nvm", issue, rnow)
                    tracer.span("read", arrival, rnow, hot=True)
                else:
                    tracer.span("read.nvm", issue, rc, wait_ns=fetched.wait_ns)
                    tracer.span("read.crypto", rc, rnow, decrypted=decrypted)
                    tracer.span("read", arrival, rnow, redirected=False)
            return rnow

        def finish(st_write, st_read):
            if stage_on:
                record_many = stages.record_many
                record_many("write.nvm", st_wnvm)
                record_many("write", st_write)
                record_many("read.metadata", st_rmeta)
                record_many("read.nvm", st_rnvm)
                record_many("read.crypto", st_rcrypto)
                record_many("read", st_read)

        return write, read, finish

    def shutdown(self, now_ns: float) -> int:
        """Encrypt every remaining hot line (the power-down sweep)."""
        victims = list(self._hot)
        self._hot.clear()
        for address in victims:
            self._encrypt_cold_line(address, now_ns)
        return len(victims)
