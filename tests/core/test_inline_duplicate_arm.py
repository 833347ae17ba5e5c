"""The write body's inline duplicate arm against the index mutators.

A duplicate write to a logical line with no mapping yet updates the dedup
index and charges its two metadata touches inline; every other write still
goes through :meth:`DedupIndex.apply_duplicate` / ``apply_unique`` and
:meth:`MetadataSystem.replay`.  Here a reference pair — a bare
``DedupIndex`` and a second ``MetadataSystem`` — takes every decision the
controller makes, one ``controller.write`` at a time, through the mutators
and ``replay`` alone.  Tables, pinned lines, cache LRU order, dirty bits
and traffic counters must agree after every request.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DeWriteConfig, MetadataCacheConfig
from repro.core.dedup_engine import MetadataSystem
from repro.core.dewrite import DeWriteController
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.predictor import HistoryWindowPredictor
from repro.core.tables import DedupIndex
from repro.hashes.crc32 import line_fingerprint
from repro.nvm.config import NvmConfig, NvmOrganization
from repro.nvm.memory import NvmMainMemory
from repro.nvm.wearlevel import StartGapConfig, WearLevelledNvm

LINE = 256


def make_device() -> NvmMainMemory:
    return NvmMainMemory(
        NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * LINE))
    )


def make_config(policy, reference_cap: int, hash_bytes: int) -> DeWriteConfig:
    return DeWriteConfig(
        reference_cap=reference_cap,
        metadata_cache=MetadataCacheConfig(
            hash_cache_bytes=hash_bytes,
            address_map_cache_bytes=256,
            inverted_hash_cache_bytes=256,
            fsm_cache_bytes=64,
            prefetch_entries=8,
        ),
        persistence=MetadataPersistenceConfig(policy=policy, writeback_interval_ns=2_000.0),
    )


def writes(seed: int, count: int = 500) -> list[tuple[int, bytes]]:
    """Runs of duplicates of a small content pool and runs of fresh lines,
    over few enough addresses that lines are remapped and rewritten."""
    rng = random.Random(seed)
    pool = [bytes([fill]) * LINE for fill in range(1, 6)]
    stream = []
    duplicate_run = True
    for _ in range(count):
        if rng.random() < 0.15:
            duplicate_run = not duplicate_run
        data = rng.choice(pool) if duplicate_run else rng.randbytes(LINE)
        stream.append((rng.randrange(160), data))
    return stream


def state(index: DedupIndex, metadata: MetadataSystem) -> tuple:
    return (
        index._mapping,
        index._stored,
        {crc: list(entry.items()) for crc, entry in index.hash_table.items()},
        index.counter_items(),
        index.pinned_lines,
        index.relocations,
        {
            name: (cache.hits, cache.misses, cache.writebacks, list(cache._blocks.items()))
            for name, cache in metadata.caches.items()
        },
        metadata.metadata_reads,
        metadata.metadata_writebacks,
        metadata.last_periodic_flush_ns,
    )


POLICIES = [
    MetadataPersistencePolicy.BATTERY_BACKED,
    MetadataPersistencePolicy.WRITE_THROUGH,
    MetadataPersistencePolicy.PERIODIC_WRITEBACK,
]


@pytest.mark.parametrize("policy", POLICIES, ids=lambda policy: policy.value)
@pytest.mark.parametrize("reference_cap", [2, 255])
@pytest.mark.parametrize("hash_bytes", [72, 64 * 1024], ids=["tiny-hash-cache", "hash-cache"])
@pytest.mark.parametrize("wear_levelled", [False, True], ids=["plain", "start-gap"])
def test_inline_duplicate_arm_matches_the_mutators(
    policy, reference_cap, hash_bytes, wear_levelled
):
    config = make_config(policy, reference_cap, hash_bytes)
    device = make_device()
    if wear_levelled:
        device = WearLevelledNvm(device, config=StartGapConfig(gap_interval=3))
    controller = DeWriteController(device, config=config)
    index = DedupIndex(controller.data_lines, reference_cap=reference_cap)
    metadata = MetadataSystem(config, controller.layout, make_device())
    predictor = HistoryWindowPredictor(window=config.history_window)
    hash_cache = metadata.caches["hash_table"]
    am_cache = metadata.caches["address_map"]
    stats = controller.stats
    arms = {"inline": 0, "replayed": 0, "remap": 0}

    for position, (address, data) in enumerate(writes(reference_cap + hash_bytes)):
        arrival = position * 250.0
        crc = line_fingerprint(data)
        predicted = predictor.predict()
        deduplicated = stats.writes_deduplicated
        controller.request_record = record = []
        controller.write(address, data, arrival)
        controller.request_record = None
        ((_, complete, _, new, _, _, _),) = record
        duplicate = stats.writes_deduplicated > deduplicated
        predictor.record(duplicate)

        # Detection's hash-cache probe: the hit arm, the PNA skip, or the
        # blocking in-NVM query.
        if hash_cache.probe(crc):
            hash_cache.access(crc, False)
        elif not (config.enable_pna and not predicted):
            metadata.access("hash_table", crc, False, arrival + config.fingerprint_latency_ns, True)
        touches: list = []
        if duplicate:
            if index.physical_of(address) is not None:
                arms["remap"] += 1
            elif am_cache.probe(address) and hash_cache.probe(crc):
                arms["inline"] += 1
            else:
                arms["replayed"] += 1
            index.apply_duplicate(address, new, touches)
        else:
            assert index.apply_unique(address, crc, touches) == new
            index.bump_counter(new, touches)
        metadata.replay(touches, complete)

        assert state(controller.index, controller.metadata) == state(index, metadata), position

    # The stream reaches every duplicate arm the body has.
    assert all(arms.values()), arms
    if reference_cap == 2:
        assert index.pinned_lines > 0
