"""The live at-crash image and the shared durable image equal a replay.

The journal folds every crash segment into a live
:class:`~repro.faults.journal.DurableState`, and recovery snapshots it
instead of replaying the journal; it replays only when the durability
horizon or a flush drop cuts an event.  These tests diff both images
against a from-scratch :func:`~repro.faults.journal.replay` at every crash
point, with the retained events chosen by an in-test reference of the
flush-fault draw, and check that a returned recovery is a snapshot.
"""

from __future__ import annotations

import random

import pytest

from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.core.registry import available_controllers, build_controller
from repro.faults.crash import CrashRun
from repro.faults.injectors import FlushFaultModel
from repro.faults.journal import DurableState, replay
from repro.faults.plan import FaultPlan
from repro.faults.recovery import RecoveryManager
from repro.nvm.memory import NvmMainMemory
from repro.runner.jobs import trace_for

#: (app, accesses): lbm, 4-thread canneal, and bzip2, which writes zero
#: lines (shreds) and releases stored lines (frees).
WORKLOADS = (("lbm", 400), ("canneal", 400), ("bzip2", 2000))

#: Crash points as trace fractions, visited in order by one resumed run.
POINTS = (0.25, 0.5, 0.9)

POLICIES = ("battery_backed", "write_through", "periodic_writeback")

#: A flush interval short enough that periodic writeback cuts events.
INTERVAL_NS = 2_000.0

#: A hot set small enough that i-NVMM writes evict (and re-encrypt) lines.
OPTS = {"i-nvmm": {"hot_set_lines": 16}}

SEED = 7


def persistence(policy: str) -> MetadataPersistenceConfig:
    return MetadataPersistenceConfig(
        policy=MetadataPersistencePolicy(policy), writeback_interval_ns=INTERVAL_NS
    )


def reference_kept(events, policy: str, horizon: float, drop: float) -> list:
    """The events a crash at ``horizon`` keeps: the durable prefix minus
    the flush-fault draw, one draw per droppable event in journal order."""
    rng = random.Random(f"{SEED}:flush-faults")
    kept = []
    for event in events:
        if event.ns > horizon:
            continue
        droppable = policy == "write_through" or (
            policy == "periodic_writeback" and event.ns > horizon - INTERVAL_NS
        )
        if drop > 0.0 and droppable and rng.random() < drop:
            continue
        kept.append(event)
    return kept


def crash_run(name: str, app: str, accesses: int) -> CrashRun:
    controller = build_controller(name, NvmMainMemory(), **OPTS.get(name, {}))
    return CrashRun(controller, trace_for(app, accesses, 1), FaultPlan())


@pytest.mark.parametrize("app,accesses", WORKLOADS, ids=[app for app, _ in WORKLOADS])
@pytest.mark.parametrize("name", sorted(available_controllers()))
def test_images_equal_replay_at_every_crash_point(name, app, accesses):
    run = crash_run(name, app, accesses)
    journal = run.wrapper.journal
    shared = cut = 0
    for point in POINTS:
        run.wrapper.service_batch(
            run.batch, run.cursor, max_requests=int(accesses * point) - run.position
        )
        events = journal.events()
        full = replay(events)
        assert journal.state == full
        crash_ns = run.wrapper.last_complete_ns
        for policy in POLICIES:
            for drop in (0.0, 0.3):
                config = persistence(policy)
                model = FlushFaultModel(config, drop_probability=drop, seed=SEED)
                recovery = RecoveryManager(run.wrapper.adapter, config, model).recover(
                    journal, crash_ns
                )
                kept = reference_kept(events, policy, recovery.horizon_ns, drop)
                assert recovery.at_crash == full
                assert recovery.durable == replay(kept)
                assert recovery.total_events == len(events)
                assert recovery.durable_events == len(kept)
                assert recovery.durable_events + recovery.dropped_events <= len(events)
                if recovery.durable is recovery.at_crash:
                    shared += 1
                    assert len(kept) == len(events)
                else:
                    cut += 1
    # Both recovery paths ran: the shared snapshot and the replay.
    assert shared and cut


@pytest.mark.parametrize("policy", ["battery_backed", "periodic_writeback"])
@pytest.mark.parametrize("name", ["dewrite", "secure-nvm", "silent-shredder", "i-nvmm"])
def test_recovery_images_are_snapshots(name, policy):
    run = crash_run(name, "bzip2", 600)
    config = persistence(policy)
    first = run.crash(FaultPlan(power_loss_at_access=200), config).recovery
    durable, at_crash = first.durable.copy(), first.at_crash.copy()
    assert (first.durable is first.at_crash) == (policy == "battery_backed")
    run.crash(FaultPlan(power_loss_at_access=550), config)
    assert len(run.wrapper.journal) > first.total_events
    assert first.durable == durable
    assert first.at_crash == at_crash


def test_journal_tracks_latest_commit_time():
    run = crash_run("dewrite", "canneal", 400)
    run.wrapper.service_batch(run.batch, run.cursor)
    journal = run.wrapper.journal
    assert journal.latest_ns == max(event.ns for event in journal.events())
    assert journal.latest_ns <= run.wrapper.last_complete_ns


def test_durable_state_copy_is_independent():
    state = replay([(0.0, "map", 1, 2), (0.0, "shred", 3, None), (0.0, "plain", 4, None)])
    snapshot = state.copy()
    state.extend([(1.0, "map", 3, 5), (1.0, "ctr", 4, 1), (1.0, "stored", 5, 9)])
    assert snapshot == DurableState(
        mapping={1: 2, 4: 4}, counters={}, stored={}, shredded={3}, plaintext={4}
    )
