"""Energy accounting across the secure-NVM system.

Fig. 19 measures "energy consumption of the secure NVM system including
NVM, AES circuit and dedup logic"; Fig. 20 compares integration modes.  The
account keeps those three buckets separate so both figures fall out of one
run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nvm.config import NvmEnergyConfig


@dataclass
class EnergyAccount:
    """Running energy totals in nanojoules, split by component."""

    config: NvmEnergyConfig
    line_size_bytes: int
    nvm_read_nj: float = 0.0
    nvm_write_nj: float = 0.0
    aes_nj: float = 0.0
    dedup_logic_nj: float = 0.0

    def __post_init__(self) -> None:
        # Per-op increments are pure functions of the (frozen) config;
        # recomputing them inside every add_* call costs a method call and
        # arithmetic on the hottest paths for the same constant.
        # Public so fused kernels can inline the adds (same float operation).
        self.aes_line_nj = self.config.aes_nj_per_line(self.line_size_bytes)
        self.dedup_op_nj = self.config.dedup_logic_nj_per_op

    def add_line_read(self, row_hit: bool = False) -> None:
        """Array energy of one full-line read."""
        self.nvm_read_nj += self.config.read_nj_per_line(self.line_size_bytes, row_hit=row_hit)

    def add_line_write(self, bits_written: int | None = None) -> None:
        """Array energy of one line write (full line unless stated)."""
        if bits_written is None:
            bits_written = self.line_size_bytes * 8
        self.nvm_write_nj += self.config.write_nj(bits_written)

    def add_aes_line(self) -> None:
        """AES engine energy for encrypting/decrypting one full line."""
        self.aes_nj += self.aes_line_nj

    def add_dedup_op(self) -> None:
        """CRC + comparator energy for one duplication check."""
        self.dedup_logic_nj += self.dedup_op_nj

    @property
    def total_nj(self) -> float:
        """Whole-system energy (Fig. 19's metric)."""
        return self.nvm_read_nj + self.nvm_write_nj + self.aes_nj + self.dedup_logic_nj

    def breakdown(self) -> dict[str, float]:
        """Component totals, for reporting."""
        return {
            "nvm_read_nj": self.nvm_read_nj,
            "nvm_write_nj": self.nvm_write_nj,
            "aes_nj": self.aes_nj,
            "dedup_logic_nj": self.dedup_logic_nj,
            "total_nj": self.total_nj,
        }

    def reset(self) -> None:
        """Zero all buckets."""
        self.nvm_read_nj = 0.0
        self.nvm_write_nj = 0.0
        self.aes_nj = 0.0
        self.dedup_logic_nj = 0.0
