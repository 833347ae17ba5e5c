"""The DeWrite memory controller (paper §III, Figs. 5/10/11).

Write path: predict the duplication state from the 3-bit history window
(§III-A); run the dedup logic (§III-B); for predicted non-duplicates start
counter-mode encryption *in parallel* with detection, for predicted
duplicates skip encryption until detection says otherwise.  A confirmed
duplicate cancels the NVM write and only updates metadata; a unique line is
encrypted under its destination line's bumped counter and written through
the banked NVM.  All metadata updates ride the write-back metadata cache.

Read path: address-mapping lookup (possibly redirected to a deduplicated
line), counter fetch, NVM read with the OTP generated in parallel, XOR.

Both paths are the request bodies of
:meth:`DeWriteController._request_bodies`, run by the shared kernel
:meth:`~repro.core.interface.MemoryController._service_stream`.

The same class also implements the paper's two strawman integration modes
(Fig. 3): ``mode="direct"`` always serialises detection before encryption,
``mode="parallel"`` always encrypts concurrently; ``mode="predictive"`` is
DeWrite.  Figs. 15 and 20 compare the three.
"""

from __future__ import annotations

import hashlib
from typing import Literal

from repro.containers import PAGE_MASK, PAGE_SHIFT, new_page
from repro.core.config import DeWriteConfig
from repro.core.dedup_engine import MetadataSystem
from repro.core.interface import MemoryController
from repro.core.predictor import HistoryWindowPredictor
from repro.core.stats import DeWriteStats
from repro.core.tables import INSERT, READ, WRITE, DedupIndex, DedupIndexError, MetadataLayout
from repro.crypto.counter_mode import CounterModeEngine
from repro.hashes.crc32 import line_fingerprint
from repro.nvm.memory import NvmMainMemory
from repro.obs.stages import StagesLike
from repro.obs.timeline import TimelineLike
from repro.obs.trace import TracerLike

IntegrationMode = Literal["predictive", "direct", "parallel"]


class DeWriteController(MemoryController):
    """Secure NVM memory controller with in-line cache-line deduplication."""

    def __init__(
        self,
        nvm: NvmMainMemory,
        config: DeWriteConfig | None = None,
        mode: IntegrationMode = "predictive",
        cme: CounterModeEngine | None = None,
    ) -> None:
        super().__init__(nvm)
        if mode not in ("predictive", "direct", "parallel"):
            raise ValueError(f"unknown integration mode {mode!r}")
        self.config = config if config is not None else DeWriteConfig()
        if self.config.line_size_bytes != self.line_size:
            raise ValueError(
                f"controller line size {self.config.line_size_bytes} != "
                f"device line size {self.line_size}"
            )
        self.mode = mode
        mc = self.config.metadata_cache
        org = nvm.config.organization
        self.layout = MetadataLayout(
            total_lines=org.total_lines,
            line_size_bytes=org.line_size_bytes,
            address_map_entry_bits=mc.address_map_entry_bits,
            inverted_hash_entry_bits=mc.inverted_hash_entry_bits,
            hash_entry_bits=mc.hash_entry_bits,
            fsm_entry_bits=mc.fsm_entry_bits,
        )
        self.index = DedupIndex(
            total_lines=self.layout.data_lines, reference_cap=self.config.reference_cap
        )
        self.metadata = MetadataSystem(self.config, self.layout, nvm)
        self.cme = cme if cme is not None else CounterModeEngine()
        self.predictor = HistoryWindowPredictor(window=self.config.history_window)
        self.stats = DeWriteStats()
        # Hot-path constants: pure functions of the frozen config/layout,
        # hoisted out of the per-request paths.
        self.data_lines = self.layout.data_lines
        self._aes_ns = self.config.aes_latency_ns
        self._xor_ns = self.config.xor_latency_ns
        self._use_crc32 = self.config.fingerprint == "crc32"
        self._hash_ctor = (
            None
            if self._use_crc32
            else getattr(hashlib, self.config.fingerprint, None)
        )

    # -- request pipeline (Figs. 10/11) ----------------------------------------

    def _plaintext(self, address: int) -> bytes:
        """The plaintext line ``address`` holds now (functional, untimed)."""
        physical = self.index.physical_of(address)
        if physical is None:
            # Never-written line: the device holds the erased pattern.
            return bytes(self.line_size)
        counter = self.index.peek_counter(physical)
        return self.cme.decrypt(self.nvm.peek(physical), physical, counter)

    def _request_bodies(self, batch, columns):
        """DeWrite's write and read bodies over ``batch``, and its finish step.

        Write (Fig. 10): predict the duplication state, fingerprint, run
        detection; a confirmed duplicate cancels the array write and only
        records the address mapping, a unique line is encrypted under its
        destination's bumped counter and written.  Detection (§III-B) is
        the body itself: CRC latency, the hash-cache probe, on a miss
        either the PNA skip (predicted non-duplicate: declare unique at
        once) or the blocking in-NVM hash-table query, then one verify
        read + compare per candidate, newest first (Table Ib: 15 + 75 + 1
        ns for a duplicate, 15 ns for a skipped non-duplicate).  Encryption runs
        concurrently with detection (speculatively) unless the mode is the
        direct way or DeWrite predicted a duplicate: then AES starts when
        detection ends, and a predicted duplicate that was not one counts
        a serialized detection.  A speculation on a confirmed duplicate
        wastes the encryption: energy only.  The body then updates the
        dedup index and charges the metadata touches itself, with the
        effects of the :class:`~repro.core.tables.DedupIndex` mutators and
        in their touch order; only a write with a touch that misses goes
        through :meth:`~repro.core.dedup_engine.MetadataSystem.replay`.
        Read (Fig. 11): address-mapping lookup, counter fetch, array read
        with the OTP overlapped, XOR; :meth:`read` rebuilds the plaintext
        functionally (:meth:`_plaintext`).  A write's
        :attr:`request_record` facts are the mapping before it, the new
        physical line, that line's counter and stored CRC, and whether the
        old line still holds data.
        """
        slots = batch.slots
        payload = batch.payload
        line_size = batch.line_size

        stats = self.stats
        truth_has_duplicate = self.truth_has_duplicate
        # Energy adds are inlined: the same float operation on the account,
        # in the same order.
        energy = self.nvm.energy
        dedup_op_nj = energy.dedup_op_nj
        aes_line_nj = energy.aes_line_nj
        config = self.config
        compare_ns = config.compare_latency_ns
        enable_pna = config.enable_pna
        trust_fingerprint = config.trust_fingerprint
        reference_cap = config.reference_cap
        max_verify_reads = config.max_verify_reads
        # The write body updates the four tables itself, with the same
        # effects as the DedupIndex mutators (the reference the differential
        # test replays).
        index = self.index
        hash_table = index.hash_table
        hash_get = hash_table.get
        mapping = index._mapping
        mapping_get = mapping.get
        stored = index._stored
        free_lines = index._free_stack
        allocate = index._allocate
        counter_pages = index._counter_pages
        counter_pages_get = counter_pages.get
        metadata = self.metadata
        replay = metadata.replay
        metadata_access = metadata.access
        enforce_persistence = metadata._enforce_persistence
        persistence = metadata._persistence_active
        # Resident metadata blocks take the cache's hit arm inline (the
        # hash-cache probe, a read's two blocking address-map lookups, a
        # write's index touches); a miss calls access() or replay().
        caches = metadata.caches
        am_cache = caches["address_map"]
        am_blocks, am_per_block = am_cache._blocks, am_cache.entries_per_block
        ih_cache = caches["inverted_hash"]
        ih_blocks, ih_per_block = ih_cache._blocks, ih_cache.entries_per_block
        fsm_cache = caches["fsm"]
        fsm_blocks, fsm_per_block = fsm_cache._blocks, fsm_cache.entries_per_block
        # The hash cache holds single entries (one per block), keyed by CRC.
        hash_cache = caches["hash_table"]
        hash_blocks = hash_cache._blocks
        hash_capacity = hash_cache.capacity_blocks
        # Verify reads go through the device (a wear-levelling facade
        # translates them); their pads come from the CME pad memo.
        nvm_peek_int = self.nvm.peek_int
        pad_memo_get = self.cme._memo(line_size).get
        pad_int_for = self.cme.pad_int_for
        seal = self.cme.seal
        nvm = self.nvm
        nvm_write_done = nvm.write_complete_ns
        nvm_read_done = nvm.read_complete_ns
        # The history window's majority rule runs on hoisted copies of the
        # predictor's running vote count and scores, written back by the
        # finish step; outcomes go straight onto its history deque.
        enable_prediction = self.config.enable_prediction
        predictor = self.predictor
        history = predictor.history
        window = len(history)
        votes = predictor.votes
        predictions = predictor.predictions
        correct = predictor.correct
        use_crc32 = self._use_crc32
        slow_fingerprint = self._fingerprint
        xor_ns = self._xor_ns
        is_direct = self.mode == "direct"
        is_parallel = self.mode == "parallel"
        is_predictive = self.mode == "predictive"
        par_enc = self.config.enable_parallel_encryption
        aes_ns = self._aes_ns
        fp_ns = self.config.fingerprint_latency_ns
        tracer = self.tracer
        trace_on = tracer.enabled
        timeline = self.timeline
        timeline_on = timeline.enabled
        record = self.request_record

        # Summary-mode sub-stages, in request order.  write.crypto takes
        # both the unique writes' encryptions and the wasted speculative
        # ones.
        stage_on = self.stages.enabled
        st_whash = columns["write.hash"]
        st_wdedup = columns["write.dedup"]
        st_wcrypto = columns["write.crypto"]
        st_wnvm = columns["write.nvm"]
        st_rmeta = columns["read.metadata"]
        st_rnvm = columns["read.nvm"]
        st_rcrypto = columns["read.crypto"]

        writes_requested = stats.writes_requested
        writes_deduplicated = stats.writes_deduplicated
        writes_stored = stats.writes_stored
        serialized_detections = stats.serialized_detections
        verify_reads_total = stats.verify_reads
        crc_collisions = stats.crc_collisions
        capped_rejects = stats.capped_reference_rejects
        hash_matches = stats.hash_matches
        missed_pna = stats.missed_duplicates_pna
        wasted_encryptions = stats.wasted_encryptions
        reads_requested = stats.reads_requested
        reads_redirected = stats.reads_redirected

        def write(req, address, arrival):
            nonlocal writes_requested, writes_deduplicated, writes_stored
            nonlocal serialized_detections, verify_reads_total, crc_collisions
            nonlocal capped_rejects, hash_matches, missed_pna, wasted_encryptions
            nonlocal votes, predictions, correct
            slot = slots[req]
            line = payload[slot : slot + line_size]
            if len(line) != line_size:
                self._check_line(line)
            writes_requested += 1
            if enable_prediction:
                # Majority vote; an even window's tie goes to the most
                # recent outcome.
                twice = votes * 2
                predicted = history[-1] if twice == window else twice > window
            else:
                predicted = False
            crc = line_fingerprint(line) if use_crc32 else slow_fingerprint(line)
            done = arrival + fp_ns
            target = -1
            v = collisions = capped = 0
            pna_skipped = False
            if crc in hash_blocks:
                # Hash-cache hit: LRU refresh and hit count, nothing more.
                hash_cache.hits += 1
                hash_blocks.move_to_end(crc)
                if timeline_on:
                    timeline.record_metadata(done, hit=True)
            elif enable_pna and not predicted:
                # PNA: skip the expensive in-NVM query; declare non-duplicate.
                pna_skipped = True
            else:
                done += metadata_access("hash_table", crc, False, done, True)
            if not pna_skipped:
                entry = hash_get(crc)
                if entry:
                    # Newest entries first: once a line's reference
                    # saturates (§III-B2) the freshest copy of the content
                    # is the live target.  Saturated entries are skipped
                    # without a read and counted up to the
                    # max_verify_reads-th candidate, even past a match.
                    candidates = 0
                    for physical, reference in reversed(entry.items()):
                        if reference >= reference_cap:
                            capped += 1
                            continue
                        candidates += 1
                        if target < 0:
                            if trust_fingerprint:
                                # Traditional dedup (Table Ib): a fingerprint
                                # match is trusted with no verify read.
                                target = physical
                            else:
                                # Verify read, the asymmetric trade of
                                # §III-B1: the pad overlaps the array read.
                                # trace=False: its interval lives inside the
                                # write.dedup span.  stored ^ pad ==
                                # plaintext is decrypt(stored) == plaintext.
                                complete = nvm_read_done(physical, done, trace=False)
                                v += 1
                                page = counter_pages_get(physical >> PAGE_SHIFT)
                                counter = page[physical & PAGE_MASK] if page is not None else 0
                                pad = pad_memo_get(counter << 64 | physical)
                                if pad is None:
                                    pad = pad_int_for(physical, counter, line_size)
                                energy.dedup_logic_nj += dedup_op_nj
                                done = complete + compare_ns
                                if nvm_peek_int(physical) ^ pad == int.from_bytes(line, "little"):
                                    target = physical
                                else:
                                    # Only a CRC collision gets an event; a
                                    # match is described by the span attrs.
                                    collisions += 1
                                    if trace_on:
                                        tracer.event(
                                            "dedup.verify_read", sim_ns=done,
                                            candidate=physical, matched=False,
                                        )
                        if candidates >= max_verify_reads:
                            break
            energy.dedup_logic_nj += dedup_op_nj
            if trace_on:
                hash_done = arrival + fp_ns
                tracer.span(
                    "write.hash", arrival, hash_done, fingerprint=self.config.fingerprint
                )
                tracer.span(
                    "write.dedup",
                    hash_done,
                    done,
                    duplicate=target >= 0,
                    verify_reads=v,
                    pna_skipped=pna_skipped,
                )
            if v:
                verify_reads_total += v
                hash_matches += 1
                crc_collisions += collisions
            capped_rejects += capped
            if pna_skipped and crc in hash_table and truth_has_duplicate(line, crc):
                missed_pna += 1
            if stage_on:
                hash_done = arrival + fp_ns
                st_whash.append(hash_done - arrival)
                st_wdedup.append(done - hash_done)
            speculated = not is_direct and (is_parallel or (par_enc and not predicted))
            # Release the line's old mapping (DedupIndex._release), shared by
            # a remap and a unique write.  released: 0 nothing (no mapping,
            # or a rewrite of the same target), 1 a saturated reference
            # (pinned: its exact count is lost), 2 a decrement, 3 the last
            # reference (the old line is freed).
            prev = mapping_get(address)
            released = 0
            if prev is not None and prev != target:
                del mapping[address]
                crc_old = stored.get(prev)
                if crc_old is None:
                    raise DedupIndexError(f"mapping of {address} points at empty line {prev}")
                refs = hash_table[crc_old]
                ref = refs[prev]
                if ref >= reference_cap:
                    released = 1
                elif ref == 1:
                    del refs[prev]
                    if not refs:
                        del hash_table[crc_old]
                    del stored[prev]
                    free_lines[prev] = None
                    released = 3
                else:
                    refs[prev] = ref - 1
                    released = 2
            if target >= 0:
                # Cancel the write; record the address mapping (§III-B2).
                writes_deduplicated += 1
                complete = done
                dest = target
                if prev != target:
                    refs = hash_table[crc]
                    ref = refs[target] + 1
                    if ref > reference_cap:
                        raise DedupIndexError(
                            f"target {target} reference saturated; caller must reject"
                        )
                    mapping[address] = target
                    refs[target] = ref
                    if ref == reference_cap:
                        index.pinned_lines += 1
            else:
                # Store the unique line in its own slot when free, else in an
                # FSM allocation (a relocation); seal it under the
                # destination's bumped counter and write it.
                writes_stored += 1
                if address in stored:
                    dest = allocate()
                    index.relocations += 1
                else:
                    dest = address
                    free_lines.pop(address, None)
                stored[dest] = crc
                refs = hash_get(crc)
                fresh = refs is None
                if fresh:
                    hash_table[crc] = {dest: 1}
                else:
                    refs[dest] = 1
                mapping[address] = dest
                # The counter bump (§III-C).  dest now holds data, so its
                # counter sits in dest's address-map slot: the own slot
                # when logical dest is not deduplicated, else the overflow
                # store, which is charged as an address-map touch too.
                page = counter_pages_get(dest >> PAGE_SHIFT)
                if page is None:
                    page = counter_pages[dest >> PAGE_SHIFT] = new_page()
                counter = page[dest & PAGE_MASK] + 1
                page[dest & PAGE_MASK] = counter
                sealed = seal(line, dest, counter)
                energy.aes_nj += aes_line_nj
                if speculated:
                    # AES started at arrival, concurrently with detection;
                    # the write issues once both finish.
                    crypto_start = arrival
                    issue = arrival + aes_ns
                    if done > issue:
                        issue = done
                else:
                    crypto_start = done
                    issue = done + aes_ns
                    if is_predictive and predicted:
                        serialized_detections += 1
                complete = nvm_write_done(dest, sealed, issue)
                if trace_on:
                    # The metadata traffic below can move the device's last
                    # start: take the write's bank wait first.
                    wait_ns = nvm.last_start_ns - issue
            if prev != target:
                # The metadata touches, at complete, in the mutators' order:
                # the release's, then the duplicate's (address map, hash
                # entry) or the unique write's (inverted hash, hash entry,
                # address map, FSM, counter).  When every touched block is
                # resident, or the unique write's new hash entry has room to
                # be inserted, each touch takes the cache's hit or insert
                # arm inline; otherwise the flat (table, entry, op) triples
                # go through replay once, so misses, evictions and
                # writebacks keep their order.
                am_block = address // am_per_block
                resident = am_block in am_blocks
                if released:
                    ih_old = prev // ih_per_block
                    fsm_old = prev // fsm_per_block
                    resident = resident and ih_old in ih_blocks and (
                        released == 1
                        or crc_old in hash_blocks and (released == 2 or fsm_old in fsm_blocks)
                    )
                if target >= 0:
                    resident = resident and crc in hash_blocks
                else:
                    ih_dest = dest // ih_per_block
                    fsm_dest = dest // fsm_per_block
                    am_dest = dest // am_per_block
                    resident = (
                        resident
                        and ih_dest in ih_blocks
                        and fsm_dest in fsm_blocks
                        and am_dest in am_blocks
                        and (crc in hash_blocks or fresh and len(hash_blocks) < hash_capacity)
                    )
                if resident:
                    if released:
                        ih_cache.hits += 1
                        ih_blocks.move_to_end(ih_old)
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if released > 1:
                            hash_cache.hits += 1
                            hash_blocks.move_to_end(crc_old)
                            hash_blocks[crc_old] = True
                            if timeline_on:
                                timeline.record_metadata(complete, hit=True)
                            if persistence:
                                enforce_persistence("hash_table", crc_old, complete)
                        if released == 3:
                            ih_cache.hits += 1
                            ih_blocks.move_to_end(ih_old)
                            ih_blocks[ih_old] = True
                            if timeline_on:
                                timeline.record_metadata(complete, hit=True)
                            if persistence:
                                enforce_persistence("inverted_hash", prev, complete)
                            fsm_cache.hits += 1
                            fsm_blocks.move_to_end(fsm_old)
                            fsm_blocks[fsm_old] = True
                            if timeline_on:
                                timeline.record_metadata(complete, hit=True)
                            if persistence:
                                enforce_persistence("fsm", prev, complete)
                    if target >= 0:
                        am_cache.hits += 1
                        am_blocks.move_to_end(am_block)
                        am_blocks[am_block] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("address_map", address, complete)
                        hash_cache.hits += 1
                        hash_blocks.move_to_end(crc)
                        hash_blocks[crc] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("hash_table", crc, complete)
                    else:
                        ih_cache.hits += 1
                        ih_blocks.move_to_end(ih_dest)
                        ih_blocks[ih_dest] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("inverted_hash", dest, complete)
                        if crc in hash_blocks:
                            # A new entry whose block is still resident is
                            # an insert, not a lookup: no hit is counted.
                            if not fresh:
                                hash_cache.hits += 1
                                if timeline_on:
                                    timeline.record_metadata(complete, hit=True)
                            hash_blocks.move_to_end(crc)
                        hash_blocks[crc] = True
                        if persistence:
                            enforce_persistence("hash_table", crc, complete)
                        am_cache.hits += 1
                        am_blocks.move_to_end(am_block)
                        am_blocks[am_block] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("address_map", address, complete)
                        fsm_cache.hits += 1
                        fsm_blocks.move_to_end(fsm_dest)
                        fsm_blocks[fsm_dest] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("fsm", dest, complete)
                        am_cache.hits += 1
                        am_blocks.move_to_end(am_dest)
                        am_blocks[am_dest] = True
                        if timeline_on:
                            timeline.record_metadata(complete, hit=True)
                        if persistence:
                            enforce_persistence("address_map", dest, complete)
                else:
                    touches = []
                    if released:
                        touches += ("inverted_hash", prev, READ)
                        if released > 1:
                            touches += ("hash_table", crc_old, WRITE)
                        if released == 3:
                            touches += ("inverted_hash", prev, WRITE, "fsm", prev, WRITE)
                    if target >= 0:
                        touches += ("address_map", address, WRITE, "hash_table", crc, WRITE)
                    else:
                        touches += (
                            "inverted_hash", dest, WRITE,
                            "hash_table", crc, INSERT if fresh else WRITE,
                            "address_map", address, WRITE,
                            "fsm", dest, WRITE,
                            "address_map", dest, WRITE,
                        )
                    replay(touches, complete)
            if target >= 0:
                if speculated:
                    # The speculative encryption was wasted: energy only.
                    energy.aes_nj += aes_line_nj
                    wasted_encryptions += 1
                    if trace_on:
                        tracer.span("write.crypto", arrival, arrival + aes_ns, wasted=True)
                    if stage_on:
                        st_wcrypto.append(arrival + aes_ns - arrival)
                dedup = True
            else:
                if trace_on:
                    tracer.span(
                        "write.crypto", crypto_start, crypto_start + aes_ns, parallel=speculated
                    )
                    tracer.span("write.nvm", issue, complete, dest=dest, wait_ns=wait_ns)
                if stage_on:
                    st_wcrypto.append(crypto_start + aes_ns - crypto_start)
                    st_wnvm.append(complete - issue)
                dedup = False
            if enable_prediction:
                predictions += 1
                if predicted == dedup:
                    correct += 1
                # The oldest outcome leaves the full window.
                votes += dedup - history[0]
                history.append(dedup)
            if timeline_on:
                timeline.record_write(arrival, deduplicated=dedup, latency_ns=complete - arrival)
            if trace_on:
                tracer.span(
                    "write", arrival, complete, deduplicated=dedup, predicted_dup=predicted
                )
            if record is not None:
                record.append((
                    req, complete, prev, dest, index.peek_counter(dest),
                    stored.get(dest), prev is not None and prev in stored,
                ))
            return complete

        def read(req, address, arrival):
            nonlocal reads_requested, reads_redirected
            reads_requested += 1
            # Address-mapping lookup is on the critical path (§IV-C2).
            block = address // am_per_block
            if block in am_blocks:
                am_cache.hits += 1
                am_blocks.move_to_end(block)
                if timeline_on:
                    timeline.record_metadata(arrival, hit=True)
                rnow = arrival
            else:
                rnow = arrival + metadata_access("address_map", address, False, arrival, True)
            physical = mapping_get(address)
            if physical is None:
                # Never-written line: the array read happens regardless.
                source = address
            else:
                if physical != address:
                    reads_redirected += 1
                # Counter fetch so the OTP overlaps the array read (Fig. 1).
                # A mapping target always holds data (a DedupIndex
                # invariant), so DedupIndex.counter_slot (§III-C) names its
                # address-map slot or the overflow store, charged as an
                # address-map touch.
                block = physical // am_per_block
                if block in am_blocks:
                    am_cache.hits += 1
                    am_blocks.move_to_end(block)
                    if timeline_on:
                        timeline.record_metadata(rnow, hit=True)
                else:
                    rnow += metadata_access("address_map", physical, False, rnow, True)
                source = physical
            issue = rnow
            rc = nvm_read_done(source, issue)
            rnow = rc + xor_ns
            if physical is not None:
                energy.aes_nj += aes_line_nj
            if stage_on:
                st_rmeta.append(issue - arrival)
                st_rnvm.append(rc - issue)
                st_rcrypto.append(rnow - rc)
            if trace_on:
                redirected = physical is not None and physical != address
                tracer.span("read.metadata", arrival, issue, redirected=redirected)
                tracer.span("read.nvm", issue, rc, wait_ns=nvm.last_start_ns - issue)
                tracer.span("read.crypto", rc, rnow, decrypted=physical is not None)
                tracer.span("read", arrival, rnow, redirected=redirected)
            return rnow

        def finish():
            stats.writes_requested = writes_requested
            stats.writes_deduplicated = writes_deduplicated
            stats.writes_stored = writes_stored
            stats.serialized_detections = serialized_detections
            stats.verify_reads = verify_reads_total
            stats.crc_collisions = crc_collisions
            stats.capped_reference_rejects = capped_rejects
            stats.hash_matches = hash_matches
            stats.missed_duplicates_pna = missed_pna
            stats.wasted_encryptions = wasted_encryptions
            stats.reads_requested = reads_requested
            stats.reads_redirected = reads_redirected
            if enable_prediction:
                predictor.votes = votes
                predictor.predictions = stats.predictions = predictions
                predictor.correct = stats.correct_predictions = correct
            self._sync_metadata_stats()

        return write, read, finish

    # -- maintenance -----------------------------------------------------------

    def flush_metadata(self, now_ns: float = 0.0) -> int:
        """Force all dirty metadata back to NVM; returns lines written."""
        flushed = self.metadata.flush(now_ns)
        self._sync_metadata_stats()
        return flushed

    def check_invariants(self) -> None:
        """Assert the dedup index is internally consistent (testing aid)."""
        self.index.check_invariants()

    # -- internals -----------------------------------------------------------

    def truth_has_duplicate(self, plaintext: bytes, crc: int) -> bool:
        """Ground-truth duplicate check (statistics only, no timing).

        Counts the duplicates the PNA skip missed (§IV-B's 1.5 %): reads
        the device functionally, bypassing the caches, and compares in the
        integer domain as a verify read does.  The write body calls it
        only when ``crc`` is indexed.
        """
        entry = self.index.candidate_entry(crc)
        n = len(plaintext)
        if not entry or n != self.line_size:
            return False
        plaintext_int = int.from_bytes(plaintext, "little")
        peek_int = self.nvm.peek_int
        peek_counter = self.index.peek_counter
        pad_int_for = self.cme.pad_int_for
        reference_cap = self.config.reference_cap
        for physical, reference in entry.items():
            if reference >= reference_cap:
                continue
            pad = pad_int_for(physical, peek_counter(physical), n)
            if peek_int(physical) ^ pad == plaintext_int:
                return True
        return False

    def _propagate_observers(
        self, tracer: TracerLike, timeline: TimelineLike, stages: StagesLike
    ) -> None:
        self.metadata.tracer = tracer
        self.metadata.timeline = timeline

    def _fingerprint(self, data: bytes) -> int:
        """Line fingerprint under the configured scheme, as an integer key.

        The cryptographic paths use the stdlib engines for speed; the
        from-scratch implementations in :mod:`repro.hashes` are asserted
        bit-identical to them by the test suite.
        """
        if self._use_crc32:
            return line_fingerprint(data)
        ctor = self._hash_ctor
        digest = (
            ctor(data).digest()
            if ctor is not None
            else hashlib.new(self.config.fingerprint, data).digest()
        )
        return int.from_bytes(digest, "big")

    def _sync_metadata_stats(self) -> None:
        self.stats.metadata_reads = self.metadata.metadata_reads
        self.stats.metadata_writebacks = self.metadata.metadata_writebacks
