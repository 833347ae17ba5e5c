"""The crash audit's replay oracle against a digest-history reference.

:class:`~repro.workloads.oracle.ReplayOracle` logs ``(address, payload,
slot)`` per committed write, resolves each line's versions lazily and
classifies recovered lines by exact byte comparison.  The reference here
is the straightforward model it must agree with: a logical image plus, per
line, the sha256 digests of every content that was overwritten by a
different one.  Writes arrive as multi-request segments (with reads in
between) and as scalar writes that restage one shared batch, the way
``MemoryController.write`` does.
"""

from __future__ import annotations

import hashlib
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.batch import OP_READ, OP_WRITE, AccessBatch
from repro.workloads.oracle import ReplayOracle

LINE = 16

#: Few distinct contents, so rewrites repeat content; fill 0 is the zero line.
POOL = [bytes([fill]) * LINE for fill in range(5)]

#: Candidates a recovered line is classified as: every pool content, a
#: garbage line no write produced, and a line of the wrong length.
CANDIDATES = POOL + [b"\xff" * LINE, b"\x01" * (LINE - 1)]


class DigestModel:
    """Logical image plus digests of every overwritten, differing version."""

    def __init__(self) -> None:
        self.memory: dict[int, bytes] = {}
        self.history: dict[int, set[bytes]] = {}

    def write(self, address: int, data: bytes) -> None:
        old = self.memory.get(address)
        if old is not None and old != data:
            self.history.setdefault(address, set()).add(hashlib.sha256(old).digest())
        self.memory[address] = data

    def classify(self, address: int, recovered: bytes) -> str:
        if recovered == self.memory[address]:
            return "intact"
        if hashlib.sha256(recovered).digest() in self.history.get(address, ()):
            return "stale"
        return "lost"


def segment_batch(rows: list[tuple[int, bytes | None]]) -> AccessBatch:
    """A batch of ``(address, data)`` writes and ``(address, None)`` reads."""
    ops = bytes(OP_READ if data is None else OP_WRITE for _, data in rows)
    slots = array("q")
    payload = bytearray()
    for _, data in rows:
        if data is None:
            slots.append(-1)
        else:
            slots.append(len(payload))
            payload += data
    n = len(rows)
    return AccessBatch(
        ops, array("i", [0] * n), array("q", [a for a, _ in rows]), array("q", [0] * n),
        bytes(n), bytes(payload), slots, LINE,
    )


def staging_batch() -> AccessBatch:
    """The one-row batch the scalar path restages for every request."""
    return AccessBatch(
        bytearray(1), array("i", [0]), array("q", [0]), array("q", [0]),
        b"\x01", b"", array("q", [0]), LINE,
    )


def verdicts(oracle: ReplayOracle, model: DigestModel) -> None:
    """Classify every candidate at every written line, oracle vs model."""
    lines = sorted(model.memory)
    assert oracle.written_addresses() == tuple(lines)
    for address in lines:
        assert oracle.expected(address) == model.memory[address]
    addresses = [address for address in lines for _ in CANDIDATES]
    recovered = [candidate for _ in lines for candidate in CANDIDATES]
    stale, lost = oracle.classify_lines(addresses, recovered)
    expected_stale = [a for a, r in zip(addresses, recovered) if model.classify(a, r) == "stale"]
    expected_lost = [a for a, r in zip(addresses, recovered) if model.classify(a, r) == "lost"]
    assert stale == expected_stale
    assert lost == expected_lost


content = st.sampled_from(POOL)
address = st.integers(0, 4)
segment = st.lists(
    st.tuples(address, st.one_of(st.none(), content)), min_size=1, max_size=6
).map(lambda rows: ("segment", rows))
scalar = st.tuples(address, content, st.booleans()).map(lambda row: ("scalar", row))


@settings(max_examples=200, deadline=None)
@given(steps=st.lists(st.one_of(segment, scalar), min_size=1, max_size=12),
       audit_every=st.integers(1, 4))
def test_verdicts_match_digest_history(steps, audit_every):
    oracle = ReplayOracle()
    model = DigestModel()
    staging = staging_batch()
    for number, (kind, step) in enumerate(steps, start=1):
        if kind == "segment":
            writes = [req for req, (_, data) in enumerate(step) if data is not None]
            oracle.observe_writes(segment_batch(step), writes)
            for line, data in step:
                if data is not None:
                    model.write(line, data)
        else:
            line, data, mutable = step
            staging.addresses[0] = line
            staging.payload = bytearray(data) if mutable else data
            oracle.observe_writes(staging, [0])
            if mutable:
                # The caller reuses its buffer: the logged write must not move.
                staging.payload[:] = b"\xee" * LINE
            model.write(line, data)
        if model.memory and number % audit_every == 0:
            verdicts(oracle, model)
    if model.memory:
        verdicts(oracle, model)


def test_unwritten_line_cannot_be_classified():
    oracle = ReplayOracle()
    oracle.observe_writes(segment_batch([(3, POOL[1]), (3, POOL[2])]), [0, 1])
    assert oracle.classify_lines([3, 3, 3], [POOL[2], POOL[1], POOL[0]]) == ([3], [3])
    with pytest.raises(KeyError):
        oracle.classify_lines([4], [POOL[0]])
