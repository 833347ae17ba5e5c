"""DeWrite's detection (the write body) and the metadata timing layer."""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.core.config import DeWriteConfig, MetadataCacheConfig
from repro.core.dedup_engine import HASH_CACHE_HIT, PNA_SKIPPED, QUERIED_NVM
from repro.core.dewrite import DeWriteController
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.tables import INSERT, READ, WRITE
from repro.hashes.crc32 import line_fingerprint
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.obs.trace import NULL_TRACER, Tracer

LINE = 256


def make_controller(**config_kwargs) -> DeWriteController:
    nvm = NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )
    return DeWriteController(nvm, config=DeWriteConfig(**config_kwargs))


def line(fill: int) -> bytes:
    return bytes([fill]) * LINE


class Detection(NamedTuple):
    """What the write body's detection did for one write."""

    target: int  # physical line the write deduplicated to, or -1
    done_ns: float  # end of detection (the write.dedup span's end)
    verify_reads: int
    collisions: int
    capped_rejects: int
    flags: int  # PNA_SKIPPED | HASH_CACHE_HIT | QUERIED_NVM


def force_prediction(controller: DeWriteController, duplicate: bool) -> None:
    """Fill the history window so the next write is predicted ``duplicate``."""
    predictor = controller.predictor
    window = len(predictor.history)
    predictor.history.extend([duplicate] * window)
    predictor.votes = window if duplicate else 0


def detect(
    controller: DeWriteController,
    address: int,
    data: bytes,
    arrival_ns: float,
    predicted_duplicate: bool,
) -> Detection:
    """Write ``data`` to the unwritten line ``address`` under a forced
    prediction, and read detection's outcome off the ``write.dedup`` span,
    the stats and the hash cache's counters."""
    assert controller.index.physical_of(address) is None
    force_prediction(controller, predicted_duplicate)
    stats = controller.stats
    hash_cache = controller.metadata.caches["hash_table"]
    cached = hash_cache.probe(line_fingerprint(data))
    misses = hash_cache.misses
    deduplicated = stats.writes_deduplicated
    verify_reads = stats.verify_reads
    collisions = stats.crc_collisions
    capped = stats.capped_reference_rejects
    tracer = Tracer()
    controller.attach_observers(tracer=tracer)
    controller.write(address, data, arrival_ns)
    controller.attach_observers(tracer=NULL_TRACER)
    (span,) = tracer.spans("write.dedup")
    attrs = span["attrs"]
    assert attrs["duplicate"] == (stats.writes_deduplicated > deduplicated)
    assert attrs["verify_reads"] == stats.verify_reads - verify_reads
    flags = (
        (PNA_SKIPPED if attrs["pna_skipped"] else 0)
        | (HASH_CACHE_HIT if cached else 0)
        | (QUERIED_NVM if hash_cache.misses > misses else 0)
    )
    return Detection(
        controller.index.physical_of(address) if attrs["duplicate"] else -1,
        span["end_ns"],
        attrs["verify_reads"],
        stats.crc_collisions - collisions,
        stats.capped_reference_rejects - capped,
        flags,
    )


class TestDetectionPaths:
    def test_fresh_line_is_non_duplicate(self):
        controller = make_controller()
        outcome = detect(controller, 0, line(1), 0.0, predicted_duplicate=True)
        assert outcome.target == -1
        assert outcome.verify_reads == 0

    def test_duplicate_detected_after_store(self):
        controller = make_controller()
        data = line(1)
        controller.write(0, data, 0.0)
        outcome = detect(controller, 1, data, 10_000.0, predicted_duplicate=True)
        assert outcome.target == 0
        assert outcome.verify_reads == 1

    def test_detection_latency_duplicate_matches_table1(self):
        # 15 ns CRC + 75 ns read + compare (hash entry cached, idle banks).
        controller = make_controller()
        data = line(1)
        controller.write(0, data, 0.0)
        arrival = 100_000.0
        outcome = detect(controller, 1, data, arrival, predicted_duplicate=True)
        latency = outcome.done_ns - arrival
        assert latency == pytest.approx(15 + 75 + 0.5)

    def test_detection_latency_nonduplicate_is_crc_only(self):
        controller = make_controller()
        outcome = detect(controller, 0, line(2), 0.0, predicted_duplicate=False)
        assert outcome.done_ns == pytest.approx(15.0)
        assert outcome.flags & PNA_SKIPPED

    def test_pna_skips_nvm_query_for_predicted_nondup(self):
        controller = make_controller()
        controller.write(0, line(1), 0.0)
        # A hash-cache miss: the probed fingerprint was never cached.
        outcome = detect(controller, 1, line(9), 10_000.0, predicted_duplicate=False)
        assert outcome.flags & PNA_SKIPPED
        assert not outcome.flags & QUERIED_NVM
        assert outcome.target == -1

    def test_predicted_duplicate_pays_nvm_query_on_miss(self):
        controller = make_controller()
        outcome = detect(controller, 0, line(9), 0.0, predicted_duplicate=True)
        assert outcome.flags & QUERIED_NVM
        assert not outcome.flags & PNA_SKIPPED
        # NVM metadata read + direct decrypt on the critical path.
        assert outcome.done_ns >= 15 + 75 + 96

    def test_pna_disabled_always_queries(self):
        controller = make_controller(enable_pna=False)
        outcome = detect(controller, 0, line(9), 0.0, predicted_duplicate=False)
        assert outcome.flags & QUERIED_NVM

    def test_cached_fingerprint_flags_a_cache_hit(self):
        controller = make_controller()
        data = line(1)
        controller.write(0, data, 0.0)  # inserts the hash entry on chip
        outcome = detect(controller, 1, data, 10_000.0, predicted_duplicate=False)
        assert outcome.flags == HASH_CACHE_HIT


class TestReferenceCapInDetection:
    def test_saturated_entries_skipped(self):
        controller = make_controller(reference_cap=2)
        data = line(3)
        controller.write(0, data, 0.0)
        controller.write(1, data, 1_000.0)  # ref -> 2 (cap)
        outcome = detect(controller, 2, data, 100_000.0, predicted_duplicate=True)
        assert outcome.target == -1
        assert outcome.capped_rejects == 1

    def test_fresh_copy_becomes_new_target(self):
        controller = make_controller(reference_cap=2)
        data = line(3)
        controller.write(0, data, 0.0)
        controller.write(1, data, 1_000.0)  # saturates line 0
        controller.write(2, data, 2_000.0)  # stored as a fresh copy
        outcome = detect(controller, 3, data, 100_000.0, predicted_duplicate=True)
        assert outcome.target != -1
        assert outcome.target != 0

    def test_saturated_entries_behind_the_match_still_count(self):
        # Candidates are gathered newest first up to max_verify_reads (2)
        # before any is verified, so the saturated line 0 behind the
        # matching fresh copy is a capped reject too.
        controller = make_controller(reference_cap=2)
        data = line(3)
        controller.write(0, data, 0.0)
        controller.write(1, data, 1_000.0)  # saturates line 0
        controller.write(2, data, 2_000.0)  # stored as a fresh copy
        outcome = detect(controller, 3, data, 100_000.0, predicted_duplicate=True)
        assert outcome.target == 2
        assert outcome.verify_reads == 1
        assert outcome.capped_rejects == 1


class TestCrcCollisions:
    def test_fingerprint_collision_rejected_by_verify_read(self):
        # Force a collision deterministically: register content A in the
        # index *under B's fingerprint* (as a hardware bit-flip in the hash
        # table would), then write B.  The verify read must expose the
        # mismatch: collision counted, no false deduplication.
        controller = make_controller()
        data_a = line(1)
        data_b = line(2)
        crc_b = line_fingerprint(data_b)

        touches: list = []
        dest = controller.index.apply_unique(0, crc=crc_b, touches=touches)
        counter = controller.index.bump_counter(dest, touches)
        ciphertext = controller.cme.encrypt(data_a, dest, counter)
        controller.nvm.write(dest, ciphertext, 0.0)

        outcome = detect(controller, 1, data_b, 10_000.0, predicted_duplicate=True)
        assert outcome.target == -1
        assert outcome.collisions == 1
        assert outcome.verify_reads == 1

    def test_collision_then_true_duplicate_in_same_chain(self):
        # Chain holds [collision, true duplicate]: detection must keep
        # scanning past the collision and land on the real match.
        controller = make_controller()
        data_real = line(5)
        crc_real = line_fingerprint(data_real)

        touches: list = []
        # Entry inserted first: the genuine content (checked last — the
        # detection scans newest-first).
        real_dest = controller.index.apply_unique(0, crc=crc_real, touches=touches)
        real_counter = controller.index.bump_counter(real_dest, touches)
        controller.nvm.write(
            real_dest, controller.cme.encrypt(data_real, real_dest, real_counter), 0.0
        )
        # Entry inserted second: wrong content filed under crc_real — the
        # newest entry, hence verified first, hence the collision.
        fake_dest = controller.index.apply_unique(1, crc=crc_real, touches=touches)
        fake_counter = controller.index.bump_counter(fake_dest, touches)
        controller.nvm.write(
            fake_dest, controller.cme.encrypt(line(6), fake_dest, fake_counter), 1_000.0
        )

        outcome = detect(controller, 2, data_real, 100_000.0, predicted_duplicate=True)
        assert outcome.target == real_dest
        assert outcome.collisions == 1
        assert outcome.verify_reads == 2


class TestTruthOracle:
    def test_truth_matches_detection(self):
        controller = make_controller()
        data = line(5)
        controller.write(0, data, 0.0)
        assert controller.truth_has_duplicate(data, line_fingerprint(data))
        other = line(6)
        assert not controller.truth_has_duplicate(other, line_fingerprint(other))


class TestMetadataSystem:
    def small(self) -> DeWriteController:
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        config = DeWriteConfig(
            metadata_cache=MetadataCacheConfig(
                hash_cache_bytes=1024,
                address_map_cache_bytes=1024,
                inverted_hash_cache_bytes=1024,
                fsm_cache_bytes=512,
                prefetch_entries=8,
            )
        )
        return DeWriteController(nvm, config=config)

    def test_blocking_miss_adds_latency(self):
        controller = self.small()
        extra = controller.metadata.access("address_map", 0, False, 0.0, blocking=True)
        assert extra >= 75 + 96  # NVM read + metadata decrypt

    def test_hit_is_free(self):
        controller = self.small()
        controller.metadata.access("address_map", 0, False, 0.0, blocking=True)
        assert controller.metadata.access("address_map", 0, False, 0.0, blocking=True) == 0.0

    def test_posted_miss_adds_no_latency_but_reads_nvm(self):
        controller = self.small()
        before = controller.nvm.reads
        extra = controller.metadata.access("fsm", 0, False, 0.0, blocking=False)
        assert extra == 0.0
        assert controller.nvm.reads == before + 1

    def test_insert_skips_fetch(self):
        controller = self.small()
        before = controller.nvm.reads
        extra = controller.metadata.access(
            "hash_table", 123, True, 0.0, blocking=False, fetch_on_miss=False
        )
        assert extra == 0.0
        assert controller.nvm.reads == before

    def test_dirty_evictions_write_nvm(self):
        controller = self.small()
        before = controller.nvm.writes
        # Small cache: stream enough dirty blocks to force evictions.
        for entry in range(0, 10_000, 8):
            controller.metadata.access("address_map", entry, True, 0.0, blocking=False)
        assert controller.nvm.writes > before
        assert controller.metadata.metadata_writebacks > 0

    def test_flush_writes_all_dirty(self):
        controller = self.small()
        controller.metadata.access("fsm", 0, True, 0.0, blocking=False)
        flushed = controller.metadata.flush(0.0)
        assert flushed >= 1

    def test_hit_rates_reported_per_table(self):
        controller = self.small()
        controller.metadata.access("fsm", 0, False, 0.0, blocking=False)
        rates = controller.metadata.hit_rates()
        assert set(rates) == {"hash_table", "address_map", "inverted_hash", "fsm"}


class TestPersistenceGate:
    """Dirtying accesses reach the persistence policy only when it is active."""

    def make(self, policy: MetadataPersistencePolicy) -> DeWriteController:
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        config = DeWriteConfig(persistence=MetadataPersistenceConfig(policy=policy))
        return DeWriteController(nvm, config=config)

    def test_battery_backed_never_enters_policy(self, monkeypatch):
        controller = self.make(MetadataPersistencePolicy.BATTERY_BACKED)
        metadata = controller.metadata
        entered: list = []
        monkeypatch.setattr(
            metadata, "_enforce_persistence", lambda *args: entered.append(args)
        )
        metadata.access("fsm", 0, True, 0.0, blocking=False)  # dirtying miss
        metadata.access("fsm", 0, True, 0.0, blocking=False)  # dirtying hit
        metadata.replay(["address_map", 0, WRITE, "hash_table", 9, INSERT], 0.0)
        controller.write(3, line(4), 1_000.0)
        assert entered == []

    def test_write_through_miss_writes_block_back(self):
        controller = self.make(MetadataPersistencePolicy.WRITE_THROUGH)
        metadata = controller.metadata
        nvm_writes = controller.nvm.writes
        metadata.access("fsm", 0, True, 0.0, blocking=False)  # dirtying miss
        assert metadata.metadata_writebacks == 1
        assert controller.nvm.writes == nvm_writes + 1
        # Written through: the resident block is clean, so eviction owes nothing.
        assert metadata.caches["fsm"].dirty_blocks() == []


class TestReplayInsertArm:
    """``replay`` inlines ``access``'s resident and insert arms exactly.

    Twin controllers take the same touches, one through ``replay`` and one
    through ``access`` call by call; the caches (statistics, LRU order,
    dirty bits), the metadata traffic counters and the device must agree.
    """

    def make(self, policy: MetadataPersistencePolicy, hash_bytes: int) -> DeWriteController:
        nvm = NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
        )
        config = DeWriteConfig(
            metadata_cache=MetadataCacheConfig(
                hash_cache_bytes=hash_bytes,
                address_map_cache_bytes=1024,
                inverted_hash_cache_bytes=1024,
                fsm_cache_bytes=512,
                prefetch_entries=8,
            ),
            persistence=MetadataPersistenceConfig(policy=policy),
        )
        return DeWriteController(nvm, config=config)

    @staticmethod
    def touches() -> list:
        flat: list = []
        # Inserts into a non-full hash cache, then enough to fill it and
        # evict dirty entries (writebacks), then hits on resident ones.
        for entry in range(12):
            flat += ("hash_table", 100 + entry, INSERT)
        flat += ("hash_table", 111, READ, "hash_table", 110, WRITE, "hash_table", 100, READ)
        # Inserts next to reads and writes on a prefetching table.
        flat += ("fsm", 0, INSERT, "fsm", 3, WRITE, "fsm", 64, INSERT, "address_map", 5, READ)
        flat += ("address_map", 5, INSERT, "inverted_hash", 9, INSERT, "inverted_hash", 9, WRITE)
        return flat

    @staticmethod
    def state(controller: DeWriteController) -> tuple:
        metadata = controller.metadata
        caches = {
            name: (cache.hits, cache.misses, cache.writebacks, list(cache._blocks.items()))
            for name, cache in metadata.caches.items()
        }
        return (
            caches,
            metadata.metadata_reads,
            metadata.metadata_writebacks,
            controller.nvm.reads,
            controller.nvm.writes,
            [bank.serviced_requests for bank in controller.nvm.banks],
        )

    @pytest.mark.parametrize(
        "policy",
        [
            MetadataPersistencePolicy.BATTERY_BACKED,
            MetadataPersistencePolicy.WRITE_THROUGH,
            MetadataPersistencePolicy.PERIODIC_WRITEBACK,
        ],
    )
    @pytest.mark.parametrize("hash_bytes", [72, 0])  # 8 entries, or none at all
    def test_replay_matches_access_call_by_call(self, policy, hash_bytes):
        replayed = self.make(policy, hash_bytes)
        called = self.make(policy, hash_bytes)
        assert replayed.metadata.caches["hash_table"].capacity_blocks == hash_bytes // 9
        flat = self.touches()
        replayed.metadata.replay(flat, 500.0)
        it = iter(flat)
        for table, entry, op in zip(it, it, it):
            called.metadata.access(table, entry, op != READ, 500.0, False, op != INSERT)
        assert self.state(replayed) == self.state(called)

    def test_the_touches_reach_every_insert_case(self):
        controller = self.make(MetadataPersistencePolicy.BATTERY_BACKED, 72)
        controller.metadata.replay(self.touches(), 0.0)
        hash_cache = controller.metadata.caches["hash_table"]
        # Eight inserts fit and four more evict dirty entries; inserts never
        # count as hits or misses.  Of the three lookups, 111 and 110 hit and
        # the evicted 100 misses, evicting a fifth dirty entry.
        assert hash_cache.writebacks == 5
        assert controller.metadata.metadata_writebacks >= 5
        assert hash_cache.hits == 2 and hash_cache.misses == 1
