"""The worst-case benchmark of §IV-C4 (Fig. 18).

"We generate a benchmark by inserting the randomized values into a
two-dimensional array and then traversing the array" — every line written
is unique (randomised values carry a nonce), so DeWrite can eliminate
nothing and any overhead it adds becomes visible.

**Exactness contract.**  :func:`worst_case_trace` makes the same draws, in
the same order, as its ``random.Random`` method form, with the methods
inlined as in :mod:`repro.workloads.generator` (identical code on CPython
3.10 through 3.13):

- ``randbytes(n)`` is ``getrandbits(8 * n)``, so a line is drawn and
  nonce-stamped as one int with a single ``to_bytes``;
- ``randint(a, b)`` is ``a +`` the ``getrandbits(k)`` rejection loop of
  ``randrange(b - a + 1)`` with ``k = (b - a + 1).bit_length()``, the
  width CPython uses (not ``(b - a).bit_length()``, which would draw
  fewer bits and change the trace);
- ``expovariate(l)`` is ``-log(1.0 - random()) / l``.
"""

from __future__ import annotations

import random
from itertools import repeat
from math import log

from repro.workloads.batch import OP_READ, OP_WRITE, BatchBuilder
from repro.workloads.trace import Trace

_MASK64 = (1 << 64) - 1


def worst_case_trace(
    num_accesses: int = 20_000,
    rows: int = 128,
    cols: int = 128,
    seed: int = 0,
    line_size_bytes: int = 256,
    persist_fraction: float = 0.25,
    mean_gap_instructions: int = 120,
) -> Trace:
    """Random-fill then traverse a 2-D array; zero duplicate writes.

    The fill phase writes each (row, col) line with unique random content
    (an 8-byte nonce in its first bytes) in row-major bursts: the first
    line of a row follows an exponential compute gap, the rest a 1-4
    instruction one.  The traversal phase reads the array back in order,
    2-8 instructions apart.  The access count splits roughly evenly
    between the two phases, repeating passes until ``num_accesses`` is
    reached.  Both phases append straight into the batch columns.
    """
    if num_accesses <= 0:
        raise ValueError("num_accesses must be positive")
    if line_size_bytes < 8:
        raise ValueError("line size must hold the 8-byte nonce")
    rng = random.Random(seed)
    rand = rng.random
    getrandbits = rng.getrandbits
    # Shrink the array when the access budget cannot cover a full
    # fill + traverse pass, so both phases always execute.
    lines = min(rows * cols, max(16, num_accesses // 3))
    cols = min(cols, lines)
    builder = BatchBuilder(line_size=line_size_bytes)
    gaps = builder.gaps.append
    persistent = builder.persistent.append
    payload = builder.payload
    line_bits = 8 * line_size_bytes
    gap_rate = 1.0 / mean_gap_instructions
    nonce = 0

    remaining = num_accesses
    while remaining:
        # Fill phase: unique random values, write bursts along each row.
        fill = min(lines, remaining)
        remaining -= fill
        start = len(payload)
        for index in range(fill):
            nonce += 1
            data = getrandbits(line_bits) & ~_MASK64 | nonce
            if index % cols == 0:
                gap = max(1, int(-log(1.0 - rand()) / gap_rate))
            else:  # randint(1, 4)
                gap = getrandbits(3)
                while gap >= 4:
                    gap = getrandbits(3)
                gap += 1
            gaps(gap)
            persistent(rand() < persist_fraction)
            payload += data.to_bytes(line_size_bytes, "little")
        builder.ops += bytes([OP_WRITE]) * fill
        builder.cores.extend(repeat(0, fill))
        builder.addresses.extend(range(fill))
        builder.slots.extend(range(start, len(payload), line_size_bytes))

        # Traversal phase: read the array back in order.
        traverse = min(lines, remaining)
        remaining -= traverse
        for _ in range(traverse):  # randint(2, 8)
            gap = getrandbits(3)
            while gap >= 7:
                gap = getrandbits(3)
            gaps(gap + 2)
        builder.ops += bytes([OP_READ]) * traverse
        builder.cores.extend(repeat(0, traverse))
        builder.addresses.extend(range(traverse))
        builder.persistent += bytes(traverse)
        builder.slots.extend(repeat(-1, traverse))

    return Trace.from_batch("worstcase", builder.build(), threads=1)
