"""Bit-level write-reduction techniques: DCW, FNW, DEUCE (Fig. 13).

These techniques reduce how many *cells* a line write programs; the paper
shows encryption's diffusion property neuters the first two (≈50 % of an
encrypted line changes on every write) and that DeWrite composes with all
three, halving their residual bit flips by eliminating whole duplicate
lines first.

- **DCW** (data-comparison write): program only the cells whose value
  changed — flips = popcount(old XOR new).
- **FNW** (Flip-N-Write): per chunk, store the data or its complement,
  whichever flips fewer cells, plus a flag bit per chunk.  Stateful: the
  stored image and flag bits persist across writes.
- **DEUCE**: re-encrypt only the modified 16-bit words of a line; clean
  words keep their previous ciphertext, so only dirty words diffuse.  (The
  full DEUCE design re-encrypts the whole line each epoch; the steady-state
  model here omits epochs, which the paper's 24 % average also reflects.)

All computations operate on whole lines as big integers (cheap popcounts);
:class:`BitFlipAnalyzer` replays a write trace through all techniques at
once, with an optional line-write eliminator modelling DeWrite or Silent
Shredder in front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.crypto.otp import SplitmixPadGenerator

Eliminator = Callable[[int, bytes], bool]


def dcw_flips(old_ct: int, new_ct: int) -> int:
    """Cells DCW programs: exactly the flipped bits."""
    return (old_ct ^ new_ct).bit_count()


class FnwLineState:
    """Stored image + per-chunk flag bits of one line under Flip-N-Write."""

    def __init__(self, line_bits: int, chunk_bits: int = 32) -> None:
        if line_bits % chunk_bits:
            raise ValueError("line must divide into whole FNW chunks")
        self.line_bits = line_bits
        self.chunk_bits = chunk_bits
        self.chunks = line_bits // chunk_bits
        self._raw = 0  # possibly-inverted stored image
        self._flags = 0  # bit i set -> chunk i stored inverted

    def write(self, new_data: int) -> int:
        """Store ``new_data``; returns cells flipped (data + flag bits)."""
        chunk_mask = (1 << self.chunk_bits) - 1
        total_flips = 0
        raw = self._raw
        flags = self._flags
        for i in range(self.chunks):
            shift = i * self.chunk_bits
            old_raw = (raw >> shift) & chunk_mask
            new_chunk = (new_data >> shift) & chunk_mask
            flag = (flags >> i) & 1
            plain_flips = (old_raw ^ new_chunk).bit_count() + flag  # flag -> 0
            inverted_flips = (old_raw ^ new_chunk ^ chunk_mask).bit_count() + (1 - flag)
            if inverted_flips < plain_flips:
                total_flips += inverted_flips
                stored = new_chunk ^ chunk_mask
                flags |= 1 << i
            else:
                total_flips += plain_flips
                stored = new_chunk
                flags &= ~(1 << i)
            raw = (raw & ~(chunk_mask << shift)) | (stored << shift)
        self._raw = raw
        self._flags = flags
        return total_flips

    @property
    def data(self) -> int:
        """Logical (de-inverted) stored value."""
        chunk_mask = (1 << self.chunk_bits) - 1
        value = self._raw
        for i in range(self.chunks):
            if (self._flags >> i) & 1:
                value ^= chunk_mask << (i * self.chunk_bits)
        return value


def deuce_flips(
    old_pt: int, new_pt: int, old_ct: int, new_pad: int, line_bits: int, word_bits: int = 16
) -> tuple[int, int]:
    """DEUCE: re-encrypt only modified words.

    Returns ``(flips, hybrid_ct)`` where the hybrid ciphertext keeps the
    old ciphertext in clean words and the freshly padded ciphertext in
    dirty words.
    """
    word_mask = (1 << word_bits) - 1
    flips = 0
    hybrid = old_ct
    changed = old_pt ^ new_pt
    for shift in range(0, line_bits, word_bits):
        if (changed >> shift) & word_mask:
            new_word = ((new_pt >> shift) & word_mask) ^ ((new_pad >> shift) & word_mask)
            old_word = (old_ct >> shift) & word_mask
            flips += (old_word ^ new_word).bit_count()
            hybrid = (hybrid & ~(word_mask << shift)) | (new_word << shift)
    return flips, hybrid


@dataclass(frozen=True)
class BitFlipReport:
    """Mean bit-flip fraction per technique over one write trace."""

    writes: int
    eliminated: int
    line_bits: int
    flips: dict[str, int]

    def flip_fraction(self, technique: str) -> float:
        """Flipped cells per requested write, as a fraction of the line
        (Fig. 13's y-axis); eliminated writes count as zero-flip writes."""
        if not self.writes:
            return 0.0
        return self.flips[technique] / (self.writes * self.line_bits)

    @property
    def elimination_rate(self) -> float:
        """Fraction of line writes the front-end eliminator cancelled."""
        return self.eliminated / self.writes if self.writes else 0.0


class BitFlipAnalyzer:
    """Replay a write trace through DCW, FNW and DEUCE simultaneously.

    Counter-mode encryption is modelled per line: each surviving write
    bumps the line's counter and produces a fully diffused new ciphertext
    (DCW/FNW operate on it); DEUCE gets the per-word hybrid treatment.
    An optional ``eliminator`` (dedup or zero-line oracle) cancels writes
    before any technique sees them.
    """

    TECHNIQUES = ("dcw", "fnw", "deuce")

    def __init__(
        self,
        line_size_bytes: int = 256,
        fnw_chunk_bits: int = 32,
        deuce_word_bits: int = 16,
        key: bytes = b"\x42" * 16,
    ) -> None:
        self.line_bits = line_size_bytes * 8
        self.line_size_bytes = line_size_bytes
        self.fnw_chunk_bits = fnw_chunk_bits
        self.deuce_word_bits = deuce_word_bits
        self._pads = SplitmixPadGenerator(key)

    def run(
        self,
        writes: Iterable[tuple[int, bytes]],
        eliminator: Eliminator | None = None,
    ) -> BitFlipReport:
        """Process ``(address, plaintext-line)`` writes; returns the report."""
        counters: dict[int, int] = {}
        plain: dict[int, int] = {}
        full_ct: dict[int, int] = {}
        deuce_ct: dict[int, int] = {}
        fnw: dict[int, FnwLineState] = {}
        flips = {name: 0 for name in self.TECHNIQUES}
        writes_seen = 0
        eliminated = 0

        for address, data in writes:
            if len(data) != self.line_size_bytes:
                raise ValueError(
                    f"line must be {self.line_size_bytes} bytes, got {len(data)}"
                )
            writes_seen += 1
            if eliminator is not None and eliminator(address, data):
                eliminated += 1
                continue

            new_pt = int.from_bytes(data, "little")
            counter = counters.get(address, 0) + 1
            counters[address] = counter
            pad = self._pads.pad_int(address, counter, self.line_size_bytes)
            new_ct = new_pt ^ pad

            old_ct = full_ct.get(address, 0)
            flips["dcw"] += dcw_flips(old_ct, new_ct)
            full_ct[address] = new_ct

            state = fnw.get(address)
            if state is None:
                state = FnwLineState(self.line_bits, self.fnw_chunk_bits)
                fnw[address] = state
            flips["fnw"] += state.write(new_ct)

            old_pt = plain.get(address, 0)
            deuce_old_ct = deuce_ct.get(address, 0)
            word_flips, hybrid = deuce_flips(
                old_pt, new_pt, deuce_old_ct, pad, self.line_bits, self.deuce_word_bits
            )
            flips["deuce"] += word_flips
            deuce_ct[address] = hybrid
            plain[address] = new_pt

        return BitFlipReport(
            writes=writes_seen,
            eliminated=eliminated,
            line_bits=self.line_bits,
            flips=flips,
        )
