"""The write body's fused index arms against the index mutators.

DeWrite's write body updates the dedup index itself: a first mapping, a
remap and a unique write each release the old mapping, pick the
destination, bump the counter and charge their metadata touches inline
through the caches' hit and insert arms, or, when some touched block is
not resident, as one flat triple list through
:meth:`MetadataSystem.replay`.  Here a reference pair — a bare
``DedupIndex`` and a second ``MetadataSystem`` — takes every decision the
controller makes, one ``controller.write`` at a time, through
:meth:`DedupIndex.apply_duplicate` / ``apply_unique`` / ``bump_counter``
and ``replay`` alone.  Tables, pinned lines, relocations, the free
stack, counters, cache LRU order, dirty bits and traffic counters must
agree after every request, and the stream must reach every arm: both
touch paths, each hash-entry insert, each release kind, a relocation and
both counter slots.
"""

from __future__ import annotations

import random

import pytest

from repro.core.config import DeWriteConfig, MetadataCacheConfig
from repro.core.dedup_engine import MetadataSystem
from repro.core.dewrite import DeWriteController
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.predictor import HistoryWindowPredictor
from repro.core.tables import INSERT, DedupIndex
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
        list(index._free_stack),
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
    stats = controller.stats
    reached = set()

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
        old = index.physical_of(address)
        if old is None or duplicate and old == new:
            # No mapping, or a duplicate rewrite of the same target.
            reached.add("release:none")
        else:
            reference = index.reference_of(old)
            reached.add(
                "release:saturated" if reference >= reference_cap
                else "release:free" if reference == 1
                else "release:decrement"
            )
        touches: list = []
        if duplicate:
            arm = "first" if old is None else "same" if old == new else "remap"
            index.apply_duplicate(address, new, touches)
        else:
            arm = "unique"
            assert index.apply_unique(address, crc, touches) == new
            reached.add(f"counter:{index.counter_slot(new)}")
            index.bump_counter(new, touches)
            if new != address:
                reached.add("relocation")
        if touches:
            path, insert = touch_path(metadata, touches)
            reached.add(f"{arm}:{path}")
            if insert:
                reached.add(insert)
        metadata.replay(touches, complete)

        assert state(controller.index, controller.metadata) == state(index, metadata), position

    expected = {
        "first:resident", "first:replayed", "remap:resident", "remap:replayed",
        "unique:resident", "unique:replayed", "insert:room",
        "release:none", "release:free", "relocation",
        "counter:address_map", "counter:overflow",
    }
    # Under a cap of 2 every shared line saturates, so a release is either
    # the last reference or a saturated one.
    expected.add("release:saturated" if reference_cap == 2 else "release:decrement")
    if hash_bytes == 72:
        expected.add("insert:full")
    assert expected <= reached, sorted(expected - reached)
    if reference_cap == 2:
        assert index.pinned_lines > 0


def touch_path(metadata: MetadataSystem, touches: list) -> tuple[str, str | None]:
    """How the body charges ``touches``: "resident" when every block is
    resident or the new hash entry's insert has room, else "replayed"; and,
    for an insert into a block that is not resident, whether the hash cache
    had room for it."""
    resident = True
    insert = None
    it = iter(touches)
    for table, entry, op in zip(it, it, it):
        cache = metadata.caches[table]
        if cache.probe(entry):
            continue
        if op == INSERT:
            room = cache.resident_blocks < cache.capacity_blocks
            insert = "insert:room" if room else "insert:full"
            if room:
                continue
        resident = False
    return ("resident" if resident else "replayed"), insert
