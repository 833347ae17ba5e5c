"""The semantic durability journal of the crash model.

The repo separates *function* from *timing*: the metadata caches
(:class:`~repro.core.metadata_cache.MetadataCache`) model only block
presence and dirtiness, while all functional table state lives in the
:class:`~repro.core.tables.DedupIndex` (or the baselines' counter dicts).
A crash model therefore cannot ask the caches "which entries were dirty" —
they don't know values.  Instead, the crash simulator journals every
*semantic* metadata update a write committed, folded from the kernel's
per-request record and stamped with the write's completion time:

- ``map``    — logical line L now resolves to physical line P;
- ``ctr``    — physical line P's encryption counter is now C (the bytes in
  the array at P are ciphertext under C);
- ``stored`` — physical line P holds content fingerprinted C (dedup-family
  inverted-hash view; used to rebuild the hash table and detect broken
  references);
- ``free``   — physical line P no longer holds live content;
- ``shred``  — logical line L entered Silent Shredder's all-zero state (a
  counter-metadata manipulation, durable with the counter table);
- ``plain``  — logical line L is stored as *plaintext* (i-NVMM hot line:
  its counter is invalidated, the array bytes are raw).

The adapters (:mod:`repro.faults.adapters`) append events as plain
``(ns, kind, key, value)`` tuples, one segment at a time, and the journal
folds each segment into a live at-crash :class:`DurableState` as it
arrives, so the metadata state at any crash instant is always at hand
without a replay.  :meth:`DurableState.extend` is the one loop that holds
the event semantics: the live fold and :func:`replay` both run through
it, and it rejects an unknown kind.  Replaying a horizon- or
drop-filtered subset reconstructs the metadata image a
:class:`~repro.faults.recovery.RecoveryManager` reads back after power
loss; the difference from the live image is what the crash destroyed.
:meth:`DurabilityJournal.events` hands out validated
:class:`MetadataUpdate` tuples for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

#: Journal event kinds (see the module docstring).
UPDATE_KINDS = ("map", "ctr", "stored", "free", "shred", "plain")

#: A journal event as the adapters append it: ``(ns, kind, key, value)``.
Event = tuple[float, str, int, int | None]

_NS = itemgetter(0)


class _Update(NamedTuple):
    ns: float
    kind: str
    key: int
    value: int | None = None


class MetadataUpdate(_Update):
    """One semantic metadata update, stamped at its commit time.

    An immutable tuple: a campaign journals thousands of them, and a tuple
    is about three times cheaper to build than a frozen dataclass.
    """

    __slots__ = ()

    def __new__(cls, ns: float, kind: str, key: int, value: int | None = None):
        if kind not in UPDATE_KINDS:
            raise ValueError(f"unknown update kind {kind!r}; known: {UPDATE_KINDS}")
        return tuple.__new__(cls, (ns, kind, key, value))


@dataclass
class DurableState:
    """A metadata image reconstructed by folding journal events.

    ``mapping``/``counters``/``stored`` mirror the dedup index's three
    value-bearing tables; ``shredded`` and ``plaintext`` carry the two
    baseline-specific line states that piggyback on counter metadata.
    """

    mapping: dict[int, int] = field(default_factory=dict)
    counters: dict[int, int] = field(default_factory=dict)
    stored: dict[int, int] = field(default_factory=dict)
    shredded: set[int] = field(default_factory=set)
    plaintext: set[int] = field(default_factory=set)

    def apply(self, update: Event) -> None:
        """Fold one journal event into the image."""
        self.extend((update,))

    def extend(self, events: Iterable[Event]) -> None:
        """Fold ``(ns, kind, key, value)`` events into the image, in order."""
        mapping = self.mapping
        counters = self.counters
        stored = self.stored
        shredded = self.shredded
        plaintext = self.plaintext
        for _, kind, key, value in events:
            if kind == "map":
                if value is None:
                    raise ValueError(f"map event for line {key} carries no target")
                mapping[key] = value
                shredded.discard(key)
                plaintext.discard(key)
            elif kind == "ctr":
                if value is None:
                    raise ValueError(f"ctr event for line {key} carries no counter")
                counters[key] = value
                plaintext.discard(key)
            elif kind == "stored":
                if value is None:
                    raise ValueError(f"stored event for line {key} carries no fingerprint")
                stored[key] = value
            elif kind == "free":
                stored.pop(key, None)
            elif kind == "shred":
                shredded.add(key)
                mapping.pop(key, None)
                plaintext.discard(key)
            elif kind == "plain":
                mapping[key] = key
                counters.pop(key, None)
                shredded.discard(key)
                plaintext.add(key)
            else:
                raise ValueError(f"unknown update kind {kind!r}; known: {UPDATE_KINDS}")

    def copy(self) -> "DurableState":
        """An independent snapshot of the image."""
        return DurableState(
            dict(self.mapping),
            dict(self.counters),
            dict(self.stored),
            set(self.shredded),
            set(self.plaintext),
        )


class DurabilityJournal:
    """Append-only event log of one run plus its live at-crash image.

    Events must arrive in commit order.  Every :meth:`extend` folds its
    events into :attr:`state`, so :attr:`state` always equals
    ``replay(self.events())``.
    """

    def __init__(self) -> None:
        self._events: list[Event] = []
        #: The metadata state the run has reached (the at-crash image).
        self.state = DurableState()
        #: Latest commit time of any event (0.0 while empty).
        self.latest_ns = 0.0

    def record(self, update: Event) -> None:
        """Append one event."""
        self.extend((update,))

    def extend(self, events: list[Event] | tuple[Event, ...]) -> None:
        """Append a segment's events and fold them into :attr:`state`."""
        if not events:
            return
        self.state.extend(events)
        self._events.extend(events)
        latest = max(map(_NS, events))
        if latest > self.latest_ns:
            self.latest_ns = latest

    def rows(self) -> list[Event]:
        """The journal's events as appended, in commit order (do not mutate)."""
        return self._events

    def events(self) -> tuple[MetadataUpdate, ...]:
        """The full journal as validated :class:`MetadataUpdate` tuples."""
        return tuple(MetadataUpdate(*event) for event in self._events)

    def __len__(self) -> int:
        return len(self._events)


def replay(events: Iterable[Event]) -> DurableState:
    """Reconstruct the metadata image described by ``events`` (in order).

    Pass a horizon/drop filtered subset of the journal (see
    :class:`repro.faults.injectors.FlushFaultModel`) for the durable image
    recovery starts from; the full journal rebuilds
    :attr:`DurabilityJournal.state`.
    """
    state = DurableState()
    state.extend(events)
    return state
