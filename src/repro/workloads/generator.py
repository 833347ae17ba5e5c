"""Synthetic post-LLC memory-trace generator.

Produces traces whose measurable statistics match an
:class:`~repro.workloads.profiles.ApplicationProfile`:

- **Duplication process**: a two-state Markov chain (duplicate /
  non-duplicate) whose stationary distribution equals the profile's
  ``dup_ratio`` and whose persistence reproduces the ``state_locality``
  of Fig. 4.  A duplicate write copies a line currently resident in the
  logical memory image (guaranteed duplicate under the Fig. 2 oracle);
  a non-duplicate write embeds a fresh 8-byte nonce (guaranteed unique).
- **Zero lines**: a ``zero_line_fraction`` slice of duplicate writes is
  the all-zero line (seeded resident at start), reproducing the Silent
  Shredder comparison.
- **Rewrites**: non-duplicate writes to previously written lines modify a
  Binomial(``rewrite_dirtiness``) fraction of 16-bit words — the knob that
  drives DEUCE/DCW/FNW bit-flip behaviour (Fig. 13).
- **Bursts**: accesses cluster into write-biased bursts (LLC writeback
  trains) separated by exponential compute gaps, creating the bank
  pressure behind the queueing speedups of Figs. 14/16.
- **Persistence**: a ``persist_fraction`` of writes is flush+fence ordered
  (the §III persistent-memory model), stalling the issuing core.

**Exactness contract.**  :meth:`TraceGenerator.generate` is one loop that
draws from ``random.Random``'s two C primitives (``random`` and
``getrandbits``) and appends straight into the
:class:`~repro.workloads.batch.BatchBuilder` columns, with no Python-level
call per access.  It inlines the pure-Python ``random.py`` methods whose
code is identical on CPython 3.10 through 3.13, so every trace makes the
same draws in the same order as the method calls would:

- ``randrange(n)`` is the ``_randbelow`` rejection loop: ``getrandbits(k)``
  with ``k = n.bit_length()``, redrawn while ``>= n``.  CPython uses
  ``n.bit_length()``, not ``(n - 1).bit_length()``, so a power of two (and
  ``n == 1``) draws one bit more than it needs and is rejected about half
  the time; a tighter ``k`` would be faster and would change every trace.
  ``k`` is hoisted once per constant ``n``;
- ``randint(a, b)`` is ``a +`` that loop over ``b - a + 1``;
- ``expovariate(l)`` is ``-log(1.0 - random()) / l`` (divided by the
  hoisted rate, never multiplied by its inverse);
- ``randbytes(n)`` is ``getrandbits(8 * n).to_bytes(n, "little")``, so a
  fresh line is drawn, masked and nonce-stamped as one int and converted
  with a single ``to_bytes``;
- a rewritten word's ``randbytes(2)`` is ``getrandbits(16)`` stored low
  byte first;
- the rewrite dirtiness count (``sum`` of ``random() < d`` over the
  line's words) is the length of a filtered comprehension over the same
  draws, which skips ``sum``'s slow path for bools;
- a rewrite's ``sample(range(words), k)`` is ``sample``'s own code for a
  ``range`` population (which differs across those versions only in a
  set-population branch a ``range`` never takes): the ``setsize`` rule
  (``21``, plus ``4 ** ceil(log(3k, 4))`` when ``k > 5``) picks the pool
  branch, one ``_randbelow(n - i)`` per pick with the picked word swapped
  out, or the set branch, redrawing ``_randbelow(n)`` while the word is
  already taken; every ``_randbelow`` is the rejection loop above.

``tests/workloads/test_trace_goldens.py`` pins every trace byte for byte
and ``tests/workloads/test_rng_inlining.py`` checks each inlined form
draw for draw against ``random.Random``.
"""

from __future__ import annotations

import random
import zlib
from math import ceil, log

from repro.workloads.batch import OP_READ, OP_WRITE, BatchBuilder
from repro.workloads.profiles import ApplicationProfile
from repro.workloads.trace import Trace

_WORD_BYTES = 2  # DEUCE word size
_NONCE_WORDS = 4  # 8-byte nonce guaranteeing non-duplicate content
_BURST_GAP_INSTRUCTIONS = 4  # near-back-to-back accesses inside a burst
_MASK64 = (1 << 64) - 1

#: Byte ``b`` of a zero-word mask → the 16 keep-mask bytes of its 8 words
#: (bit ``j`` set zeroes word ``j``: ``00 00``; clear keeps it: ``ff ff``).
_KEEP_BYTES = tuple(
    b"".join(b"\x00\x00" if (mask >> j) & 1 else b"\xff\xff" for j in range(8))
    for mask in range(256)
)


class TraceGenerator:
    """Deterministic (seeded) trace generator for one application profile."""

    def __init__(
        self, profile: ApplicationProfile, seed: int = 0, line_size_bytes: int = 256
    ) -> None:
        if line_size_bytes % _WORD_BYTES:
            raise ValueError("line size must be a whole number of 16-bit words")
        if line_size_bytes < _NONCE_WORDS * _WORD_BYTES:
            raise ValueError(
                f"line size must hold the {_NONCE_WORDS * _WORD_BYTES}-byte nonce"
            )
        self.profile = profile
        self.line_size = line_size_bytes
        self._words_per_line = line_size_bytes // _WORD_BYTES
        self._rng = random.Random((seed << 32) ^ zlib.crc32(profile.name.encode()))
        self._memory: dict[int, bytes] = {}
        self._written: list[int] = []  # insertion-ordered written addresses
        self._nonce = 0
        self._zero_line = bytes(line_size_bytes)
        # Duplication-state process: a persistent two-state Markov chain
        # plus isolated single-write "blips" (one opposite-state write that
        # does not move the chain).  Real traces have both: long runs from
        # phase behaviour, blips from stray allocations mid-copy.  The
        # split matters for Fig. 4 — a 1-bit predictor pays 2 errors per
        # blip but only 1 per genuine transition, a 3-bit majority pays the
        # reverse, so blips are why the wider window wins in the paper.
        # Budget: transitions get 20 % of the (1 - locality) error budget,
        # blips 40 % (each blip produces 2 prev-state mismatches).
        d_target = profile.dup_ratio
        unlocality = 1.0 - profile.state_locality
        self._blip_probability = 0.4 * unlocality
        transition_rate = 0.2 * unlocality
        # Blips skew the emitted ratio; aim the chain so emissions hit d.
        b = self._blip_probability
        d_chain = (d_target - b) / (1.0 - 2.0 * b) if b < 0.5 else d_target
        d_chain = min(1.0, max(0.0, d_chain))
        if 0.0 < d_chain < 1.0:
            churn = min(1.0, transition_rate / (2.0 * d_chain * (1.0 - d_chain)))
        else:
            churn = 1.0
        self._p_leave_dup = (1.0 - d_chain) * churn
        self._p_leave_nondup = d_chain * churn
        self._state_dup = self._rng.random() < d_chain
        # Per-core burst state.  Duplicate writes inside one burst copy from
        # a small set of source lines (a memcpy or pattern fill duplicates
        # one contiguous source region), so their verify reads exhibit the
        # row-buffer locality real copy traffic has.
        self._burst_left = [0] * profile.threads
        self._burst_sources: list[list[bytes]] = [[] for _ in range(profile.threads)]

    def generate(self, num_accesses: int) -> Trace:
        """Generate a trace of ``num_accesses`` memory requests.

        One loop per trace: every draw is inlined (see the module's
        exactness contract) and every access is appended straight into
        the batch columns.

        - A **read** targets a written line 90 % of the time, else any
          working-set line.
        - A **duplicate write** is the zero line (the profile's zero share
          of duplicates), else a copy of one of its burst's (at most two)
          source lines, else a resident non-zero line, which joins the
          burst's sources.  Sampling avoids the zero line, otherwise zero
          content, which zero writes keep spreading, snowballs until nearly
          every duplicate is zero; after eight zero picks it gives up and
          writes zero.
        - A **unique write** to a never-written line is a fresh word-sparse
          line: random content with a random ~half of its 16-bit words
          zeroed, because real lines are word-sparse (small integers, short
          pointers, padding), which is why DEUCE's modified-word encryption
          beats whole-line re-encryption (Fig. 13).  A unique write to a
          written line rewrites it, zeroing or redrawing a
          Binomial(``rewrite_dirtiness``) set of scattered words.  Either
          way a fresh 8-byte nonce at a random word offset makes the line
          unique.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        profile = self.profile
        rng = self._rng
        rand = rng.random
        getrandbits = rng.getrandbits
        size = self.line_size
        words = self._words_per_line
        zero_line = self._zero_line
        memory = self._memory
        written = self._written
        burst_left = self._burst_left
        burst_sources = self._burst_sources
        state_dup = self._state_dup
        nonce = self._nonce

        builder = BatchBuilder(line_size=size)
        ops = builder.ops.append
        cores = builder.cores.append
        addresses = builder.addresses.append
        gaps = builder.gaps.append
        persistent = builder.persistent.append
        slots = builder.slots.append
        payload = builder.payload

        # Per-trace constants of the draws (randrange bit widths, rates).
        threads = profile.threads
        thread_bits = threads.bit_length()
        lines = profile.working_set_lines
        address_bits = lines.bit_length()
        burst_gaps = _BURST_GAP_INSTRUCTIONS  # randint(1, 4) == 1 + randrange(4)
        burst_gap_bits = burst_gaps.bit_length()
        starts = words - _NONCE_WORDS + 1  # nonce start word: randrange(starts)
        start_bits = starts.bit_length()
        burst_rate = 1.0 / profile.burst_length_mean
        gap_rate = 1.0 / profile.mean_gap_instructions
        burst_write_probability = min(0.9, profile.write_fraction * 2.0)
        write_fraction = profile.write_fraction
        p_leave_dup = self._p_leave_dup
        p_leave_nondup = self._p_leave_nondup
        blip_probability = self._blip_probability
        zero_share = profile.zero_line_fraction / profile.dup_ratio if profile.dup_ratio else 0.0
        persist_fraction = profile.persist_fraction
        dirtiness = profile.rewrite_dirtiness
        word_range = range(words)
        word_bits = words.bit_length()
        mask_bytes = -(-size // 16)
        keep_of = _KEEP_BYTES.__getitem__

        # Seed the zero line as resident so zero writes are duplicates from
        # the start (memory initialisation, §II-C).
        address = getrandbits(address_bits)
        while address >= lines:
            address = getrandbits(address_bits)
        ops(OP_WRITE)
        cores(0)
        addresses(address)
        gaps(profile.mean_gap_instructions)
        persistent(1)
        slots(len(payload))
        payload += zero_line
        if address not in memory:
            written.append(address)
        memory[address] = zero_line
        # ``written`` is never empty from here on, so every pick from it is
        # a randrange over its current length.
        n_written = len(written)
        written_bits = n_written.bit_length()

        for _ in range(num_accesses - 1):
            core = getrandbits(thread_bits)
            while core >= threads:
                core = getrandbits(thread_bits)
            if burst_left[core] > 0:
                burst_left[core] -= 1
                gap = getrandbits(burst_gap_bits)
                while gap >= burst_gaps:
                    gap = getrandbits(burst_gap_bits)
                gap += 1
                write_probability = burst_write_probability
            else:
                burst_left[core] = max(0, int(-log(1.0 - rand()) / burst_rate))
                burst_sources[core] = []
                gap = max(1, int(-log(1.0 - rand()) / gap_rate))
                write_probability = write_fraction
            cores(core)
            gaps(gap)

            if rand() >= write_probability:
                # ---- read ---------------------------------------------------
                if rand() < 0.9:
                    pick = getrandbits(written_bits)
                    while pick >= n_written:
                        pick = getrandbits(written_bits)
                    address = written[pick]
                else:
                    address = getrandbits(address_bits)
                    while address >= lines:
                        address = getrandbits(address_bits)
                ops(OP_READ)
                addresses(address)
                persistent(0)
                slots(-1)
                continue

            # ---- write: advance the duplication state (or blip) ---------
            if rand() < (p_leave_dup if state_dup else p_leave_nondup):
                state_dup = not state_dup
                duplicate = state_dup
            elif rand() < blip_probability:
                duplicate = not state_dup  # isolated blip; the chain stays put
            else:
                duplicate = state_dup
            address = getrandbits(address_bits)
            while address >= lines:
                address = getrandbits(address_bits)

            if duplicate:
                if rand() < zero_share:
                    data = zero_line
                else:
                    sources = burst_sources[core]
                    if sources and rand() < 0.8:
                        n_sources = len(sources)
                        source_bits = n_sources.bit_length()
                        pick = getrandbits(source_bits)
                        while pick >= n_sources:
                            pick = getrandbits(source_bits)
                        data = sources[pick]
                    else:
                        for _ in range(8):
                            pick = getrandbits(written_bits)
                            while pick >= n_written:
                                pick = getrandbits(written_bits)
                            data = memory[written[pick]]
                            if data != zero_line:
                                break
                        else:
                            data = zero_line
                        if len(sources) < 2:
                            sources.append(data)
            else:
                old = memory.get(address)
                if old is None:
                    # Fresh word-sparse line: bit w of the mask zeroes word w.
                    line = getrandbits(8 * size)
                    zero_mask = getrandbits(words).to_bytes(mask_bytes, "little")
                    keep = b"".join(map(keep_of, zero_mask))[:size]
                    start = getrandbits(start_bits)
                    while start >= starts:
                        start = getrandbits(start_bits)
                    nonce += 1
                    shift = start * 16
                    line &= int.from_bytes(keep, "little") & ~(_MASK64 << shift)
                    data = (line | nonce << shift).to_bytes(size, "little")
                else:
                    # Rewrite: dirty a contiguous region for the nonce plus
                    # scattered words, to spread DEUCE's word flips.
                    rewrite = bytearray(old)
                    dirty = len([None for _ in word_range if rand() < dirtiness])
                    start = getrandbits(start_bits)
                    while start >= starts:
                        start = getrandbits(start_bits)
                    # sample(range(words), k): CPython's setsize rule picks
                    # the pool branch or the set branch.
                    k = min(words, max(_NONCE_WORDS, dirty))
                    picked = []
                    if words <= (21 + 4 ** ceil(log(k * 3, 4)) if k > 5 else 21):
                        pool = list(word_range)
                        for remaining in range(words, words - k, -1):
                            bits = remaining.bit_length()
                            j = getrandbits(bits)
                            while j >= remaining:
                                j = getrandbits(bits)
                            picked.append(pool[j])
                            pool[j] = pool[remaining - 1]
                    else:
                        selected = set()
                        for _ in range(k):
                            j = getrandbits(word_bits)
                            while j >= words or j in selected:
                                j = getrandbits(word_bits)
                            selected.add(j)
                            picked.append(j)
                    for w in picked:
                        # A zero word, or randbytes(2) as getrandbits(16).
                        offset = w * _WORD_BYTES
                        if rand() < 0.5:
                            rewrite[offset] = rewrite[offset + 1] = 0
                        else:
                            word = getrandbits(16)
                            rewrite[offset] = word & 0xFF
                            rewrite[offset + 1] = word >> 8
                    nonce += 1
                    offset = start * _WORD_BYTES
                    rewrite[offset : offset + 8] = nonce.to_bytes(8, "little")
                    data = bytes(rewrite)

            if address not in memory:
                written.append(address)
                n_written += 1
                written_bits = n_written.bit_length()
            memory[address] = data
            ops(OP_WRITE)
            addresses(address)
            persistent(rand() < persist_fraction)
            slots(len(payload))
            payload += data

        self._state_dup = state_dup
        self._nonce = nonce
        return Trace.from_batch(profile.name, builder.build(), threads=profile.threads)


def generate_trace(
    profile: ApplicationProfile,
    num_accesses: int,
    seed: int = 0,
    line_size_bytes: int = 256,
) -> Trace:
    """One-shot convenience wrapper around :class:`TraceGenerator`."""
    return TraceGenerator(profile, seed=seed, line_size_bytes=line_size_bytes).generate(
        num_accesses
    )
