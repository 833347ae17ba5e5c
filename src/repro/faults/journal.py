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

Replaying the journal up to a durability horizon reconstructs exactly the
metadata image a :class:`~repro.faults.recovery.RecoveryManager` can read
back after power loss; replaying it in full reconstructs the metadata
state at the crash instant.  The difference between the two is what the
crash destroyed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

#: Journal event kinds (see the module docstring).
UPDATE_KINDS = ("map", "ctr", "stored", "free", "shred", "plain")


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
    """A metadata image reconstructed by replaying journal events.

    ``mapping``/``counters``/``stored`` mirror the dedup index's three
    value-bearing tables; ``shredded`` and ``plaintext`` carry the two
    baseline-specific line states that piggyback on counter metadata.
    """

    mapping: dict[int, int] = field(default_factory=dict)
    counters: dict[int, int] = field(default_factory=dict)
    stored: dict[int, int] = field(default_factory=dict)
    shredded: set[int] = field(default_factory=set)
    plaintext: set[int] = field(default_factory=set)

    def apply(self, update: MetadataUpdate) -> None:
        """Fold one journal event into the image (in journal order)."""
        kind, key, value = update.kind, update.key, update.value
        if kind == "map":
            if value is None:
                raise ValueError(f"map event for line {key} carries no target")
            self.mapping[key] = value
            self.shredded.discard(key)
            self.plaintext.discard(key)
        elif kind == "ctr":
            if value is None:
                raise ValueError(f"ctr event for line {key} carries no counter")
            self.counters[key] = value
            self.plaintext.discard(key)
        elif kind == "stored":
            if value is None:
                raise ValueError(f"stored event for line {key} carries no fingerprint")
            self.stored[key] = value
        elif kind == "free":
            self.stored.pop(key, None)
        elif kind == "shred":
            self.shredded.add(key)
            self.mapping.pop(key, None)
            self.plaintext.discard(key)
        else:  # "plain"
            self.mapping[key] = key
            self.counters.pop(key, None)
            self.shredded.discard(key)
            self.plaintext.add(key)


class DurabilityJournal:
    """Append-only log of :class:`MetadataUpdate` records for one run."""

    def __init__(self) -> None:
        self._events: list[MetadataUpdate] = []

    def record(self, update: MetadataUpdate) -> None:
        """Append one event (events must arrive in commit order)."""
        self._events.append(update)

    def extend(self, updates: Iterable[MetadataUpdate]) -> None:
        """Append a batch of events from one committed write."""
        self._events.extend(updates)

    def events(self) -> tuple[MetadataUpdate, ...]:
        """The full journal, in commit order."""
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)


def replay(events: Iterable[MetadataUpdate]) -> DurableState:
    """Reconstruct the metadata image described by ``events`` (in order).

    Pass the full journal for the at-crash image, or a horizon/drop
    filtered subset (see :class:`repro.faults.injectors.FlushFaultModel`)
    for the durable image recovery starts from.
    """
    state = DurableState()
    for event in events:
        state.apply(event)
    return state
