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
"""

from __future__ import annotations

import random
import zlib

from repro.workloads.batch import BatchBuilder
from repro.workloads.profiles import ApplicationProfile
from repro.workloads.trace import Trace

_WORD_BYTES = 2  # DEUCE word size
_NONCE_WORDS = 4  # 8-byte nonce guaranteeing non-duplicate content
_BURST_GAP_INSTRUCTIONS = 4  # near-back-to-back accesses inside a burst

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

        Accesses are appended straight into the columnar batch — no
        intermediate ``MemoryAccess`` objects.
        """
        if num_accesses <= 0:
            raise ValueError("num_accesses must be positive")
        profile = self.profile
        rng = self._rng
        builder = BatchBuilder(line_size=self.line_size)

        # Seed the zero line as resident so zero writes are duplicates from
        # the start (memory initialisation, §II-C).
        first_zero = rng.randrange(profile.working_set_lines)
        builder.append_write(
            0,
            first_zero,
            self._zero_line,
            gap_instructions=profile.mean_gap_instructions,
            persistent=True,
        )
        self._remember(first_zero, self._zero_line)

        for _ in range(num_accesses - 1):
            core = rng.randrange(profile.threads)
            in_burst = self._burst_left[core] > 0
            if in_burst:
                self._burst_left[core] -= 1
                gap = rng.randint(1, _BURST_GAP_INSTRUCTIONS)
                write_probability = min(0.9, profile.write_fraction * 2.0)
            else:
                self._burst_left[core] = max(
                    0, int(rng.expovariate(1.0 / profile.burst_length_mean))
                )
                self._burst_sources[core] = []
                gap = max(1, int(rng.expovariate(1.0 / profile.mean_gap_instructions)))
                write_probability = profile.write_fraction

            if rng.random() < write_probability:
                self._append_write(builder, core, gap)
            else:
                self._append_read(builder, core, gap)

        return Trace.from_batch(profile.name, builder.build(), threads=profile.threads)

    # -- write synthesis -------------------------------------------------------

    def _append_write(self, builder: BatchBuilder, core: int, gap: int) -> None:
        profile = self.profile
        rng = self._rng
        duplicate = self._advance_duplication_state()
        address = rng.randrange(profile.working_set_lines)

        if duplicate and self._written:
            zero_share = (
                profile.zero_line_fraction / profile.dup_ratio if profile.dup_ratio else 0.0
            )
            if rng.random() < zero_share:
                data = self._zero_line
            else:
                sources = self._burst_sources[core]
                if sources and rng.random() < 0.8:
                    data = sources[rng.randrange(len(sources))]
                else:
                    data = self._sample_nonzero_resident()
                    if len(sources) < 2:
                        sources.append(data)
        else:
            data = self._fresh_content(address)

        self._remember(address, data)
        builder.append_write(
            core,
            address,
            data,
            gap_instructions=gap,
            persistent=rng.random() < profile.persist_fraction,
        )

    def _sample_nonzero_resident(self) -> bytes:
        """Copy a resident non-zero line (a genuine non-zero duplicate).

        Sampling must avoid the zero line, otherwise zero content — which
        explicit zero writes keep spreading across addresses — snowballs
        until nearly every "duplicate" is zero and the zero-line fraction
        blows past its target.  Falls back to zero when the image holds
        nothing else (only possible at the very start).
        """
        rng = self._rng
        for _ in range(8):
            source = self._written[rng.randrange(len(self._written))]
            data = self._memory[source]
            if data != self._zero_line:
                return data
        return self._zero_line

    def _random_sparse_line(self) -> bytearray:
        """A fresh line with ~half its 16-bit words zero.

        Real cache lines are word-sparse (small integers, short pointers,
        padding), which is precisely why DEUCE's modified-word encryption
        beats whole-line re-encryption (Fig. 13); dense random content
        would erase that effect.

        Bit ``w`` of one ``getrandbits`` draw zeroes word ``w``; the whole
        mask is applied as one big-int AND.
        """
        rng = self._rng
        size = self.line_size
        line = int.from_bytes(rng.randbytes(size), "little")
        zero_mask = rng.getrandbits(self._words_per_line).to_bytes(-(-size // 16), "little")
        keep = int.from_bytes(b"".join([_KEEP_BYTES[b] for b in zero_mask])[:size], "little")
        return bytearray((line & keep).to_bytes(size, "little"))

    def _fresh_content(self, address: int) -> bytes:
        """Unique line content: a rewrite of the resident line (dirtying a
        ``rewrite_dirtiness`` fraction of words) or a brand-new line, always
        carrying a fresh nonce so it cannot be a duplicate."""
        rng = self._rng
        old = self._memory.get(address)
        if old is None:
            line = self._random_sparse_line()
            start_word = rng.randrange(self._words_per_line - _NONCE_WORDS + 1)
        else:
            line = bytearray(old)
            words = self._words_per_line
            draw = rng.random
            dirtiness = self.profile.rewrite_dirtiness
            dirty_words = max(_NONCE_WORDS, sum([draw() < dirtiness for _ in range(words)]))
            # Dirty a contiguous region plus scattered words: contiguous for
            # the nonce, scattered to spread DEUCE's word flips.
            start_word = rng.randrange(words - _NONCE_WORDS + 1)
            scattered = rng.sample(range(words), k=min(words, dirty_words))
            randbytes = rng.randbytes
            for w in scattered:
                offset = w * _WORD_BYTES
                new_word = b"\x00\x00" if draw() < 0.5 else randbytes(_WORD_BYTES)
                line[offset : offset + _WORD_BYTES] = new_word
        nonce_offset = start_word * _WORD_BYTES
        self._nonce += 1
        line[nonce_offset : nonce_offset + 8] = self._nonce.to_bytes(8, "little")
        return bytes(line)

    def _advance_duplication_state(self) -> bool:
        state = self._state_dup
        leave = self._p_leave_dup if state else self._p_leave_nondup
        if self._rng.random() < leave:
            self._state_dup = not state
            state = self._state_dup
        elif self._rng.random() < self._blip_probability:
            return not state  # isolated blip; the chain stays put
        return state

    def _remember(self, address: int, data: bytes) -> None:
        if address not in self._memory:
            self._written.append(address)
        self._memory[address] = data

    # -- read synthesis -------------------------------------------------------

    def _append_read(self, builder: BatchBuilder, core: int, gap: int) -> None:
        rng = self._rng
        if self._written and rng.random() < 0.9:
            address = self._written[rng.randrange(len(self._written))]
        else:
            address = rng.randrange(self.profile.working_set_lines)
        builder.append_read(core, address, gap_instructions=gap)


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
