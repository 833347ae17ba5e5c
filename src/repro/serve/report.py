"""Pure aggregation fold: per-shard payloads → one service report.

Everything in this module is a pure function of the shard job payloads
(it reads dicts, folds counters, and constructs the merged
:class:`~repro.system.metrics.SimulationReport`); nothing here touches
the wall clock or the runner, which is what lets the
CI system test assert that two executions of the same seeded plan emit
**byte-identical** serialised reports.

The merge is exact, not approximate: DeWrite counters add, latency
accumulators fold (sum/count/max, guarded min), per-shard wear combines
via :func:`repro.nvm.wear.combine_summaries` (shard devices are
disjoint), stage histograms merge bucket-wise, and the derived means are
recomputed from the merged sums — the same arithmetic a single process
observing all shards would have done.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from repro.core.stats import DeWriteStats, LatencyAccumulator
from repro.nvm.wear import WearSummary, combine_summaries
from repro.obs.stages import StageAccumulator
from repro.system.metrics import SimulationReport


@dataclass(frozen=True)
class ShardSummary:
    """One shard's service-level accounting (the wear/dedup table row)."""

    shard: int
    tenants: int
    offered: int
    admitted: int
    deferred: int
    rejected: int
    accesses: int
    writes_requested: int
    writes_deduplicated: int
    wear: WearSummary
    makespan_ns: float
    bank_wait_total_ns: float
    bank_serviced: int

    @property
    def dedup_ratio(self) -> float:
        """Fraction of this shard's requested writes eliminated."""
        if not self.writes_requested:
            return 0.0
        return self.writes_deduplicated / self.writes_requested

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot."""
        return {
            "shard": self.shard,
            "tenants": self.tenants,
            "offered": self.offered,
            "admitted": self.admitted,
            "deferred": self.deferred,
            "rejected": self.rejected,
            "accesses": self.accesses,
            "writes_requested": self.writes_requested,
            "writes_deduplicated": self.writes_deduplicated,
            "wear": dataclasses.asdict(self.wear),
            "makespan_ns": self.makespan_ns,
            "bank_wait_total_ns": self.bank_wait_total_ns,
            "bank_serviced": self.bank_serviced,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ShardSummary":
        """Rebuild a shard summary from :meth:`to_dict` output."""
        return cls(
            shard=int(payload["shard"]),
            tenants=int(payload["tenants"]),
            offered=int(payload["offered"]),
            admitted=int(payload["admitted"]),
            deferred=int(payload["deferred"]),
            rejected=int(payload["rejected"]),
            accesses=int(payload["accesses"]),
            writes_requested=int(payload["writes_requested"]),
            writes_deduplicated=int(payload["writes_deduplicated"]),
            wear=WearSummary(**{k: int(v) for k, v in payload["wear"].items()}),
            makespan_ns=float(payload["makespan_ns"]),
            bank_wait_total_ns=float(payload["bank_wait_total_ns"]),
            bank_serviced=int(payload["bank_serviced"]),
        )


def _merge_latency(accumulators: list[LatencyAccumulator]) -> LatencyAccumulator:
    """Fold per-shard latency accumulators into one population."""
    merged = LatencyAccumulator()
    for accumulator in accumulators:
        if not accumulator.count:
            continue
        if not merged.count or accumulator.min_ns < merged.min_ns:
            merged.min_ns = accumulator.min_ns
        merged.total_ns += accumulator.total_ns
        merged.count += accumulator.count
        if accumulator.max_ns > merged.max_ns:
            merged.max_ns = accumulator.max_ns
    return merged


def _merge_stats(shards: list[DeWriteStats]) -> DeWriteStats:
    """Sum counters and fold latency populations across shards."""
    merged = DeWriteStats()
    for name in DeWriteStats._COUNTER_FIELDS:
        setattr(merged, name, sum(getattr(shard, name) for shard in shards))
    merged.write_latency = _merge_latency([shard.write_latency for shard in shards])
    merged.read_latency = _merge_latency([shard.read_latency for shard in shards])
    return merged


def merge_shard_reports(payloads: list[dict[str, Any]]) -> SimulationReport:
    """Merge per-shard job payloads into the pool-wide simulation report.

    ``payloads`` are ``serve-shard`` job results (sorted by shard before
    folding, so the merge order never depends on completion order).  A
    single payload returns its report verbatim — a shards=1 service run
    is *exactly* the plain simulation of the same stream, which the
    identity system test leans on.

    Shard makespans are concurrent (each shard is an independent memory
    channel), so the pool makespan is their max; instructions, cycles and
    energy add; IPC and the latency means are recomputed from the merged
    sums rather than averaged, so they equal a single-process run's
    arithmetic exactly.
    """
    if not payloads:
        raise ValueError("need at least one shard payload to merge")
    ordered = sorted(payloads, key=lambda payload: int(payload["shard"]))
    if len(ordered) == 1:
        return SimulationReport.from_dict(ordered[0]["report"])

    reports = [SimulationReport.from_dict(payload["report"]) for payload in ordered]
    stats = _merge_stats([report.stats for report in reports])
    instructions = sum(report.instructions for report in reports)
    total_cycles = sum(report.total_cycles for report in reports)
    breakdown_keys = sorted({key for report in reports for key in report.energy_breakdown})
    bank_serviced = sum(int(payload["bank_serviced"]) for payload in ordered)
    bank_wait_total_ns = sum(float(payload["bank_wait_total_ns"]) for payload in ordered)
    return SimulationReport(
        workload=f"serve/{len(reports)}-shards",
        controller=reports[0].controller,
        instructions=instructions,
        total_cycles=total_cycles,
        ipc=instructions / total_cycles if total_cycles else 0.0,
        makespan_ns=max(report.makespan_ns for report in reports),
        mean_write_latency_ns=stats.write_latency.mean_ns,
        mean_read_latency_ns=stats.read_latency.mean_ns,
        energy_nj=sum(report.energy_nj for report in reports),
        energy_breakdown={
            key: sum(report.energy_breakdown.get(key, 0.0) for report in reports)
            for key in breakdown_keys
        },
        wear=combine_summaries([report.wear for report in reports]),
        stats=stats,
        mean_bank_wait_ns=bank_wait_total_ns / bank_serviced if bank_serviced else 0.0,
    )


def shard_summary_from_payload(payload: dict[str, Any]) -> ShardSummary:
    """Project one ``serve-shard`` job payload onto its table row."""
    report = SimulationReport.from_dict(payload["report"])
    return ShardSummary(
        shard=int(payload["shard"]),
        tenants=int(payload["tenants"]),
        offered=int(payload["offered"]),
        admitted=int(payload["admitted"]),
        deferred=int(payload["deferred"]),
        rejected=int(payload["rejected"]),
        accesses=report.stats.writes_requested + report.stats.reads_requested,
        writes_requested=report.stats.writes_requested,
        writes_deduplicated=report.stats.writes_deduplicated,
        wear=report.wear,
        makespan_ns=report.makespan_ns,
        bank_wait_total_ns=float(payload["bank_wait_total_ns"]),
        bank_serviced=int(payload["bank_serviced"]),
    )


@dataclass(frozen=True)
class ServiceReport:
    """The service run's result: merged report + shard tables + latency.

    Deliberately excludes anything wall-clock-derived (runner elapsed
    time, retry counts): serialising two runs of the same seeded config
    must produce identical bytes.
    """

    config: dict[str, Any]
    merged: SimulationReport
    stages: StageAccumulator
    shards: tuple[ShardSummary, ...]
    fallbacks: dict[str, float]

    @property
    def dedup_ratio(self) -> float:
        """Cross-tenant dedup ratio of the whole pool."""
        return self.merged.stats.write_reduction

    def latency_quantile_ns(self, stage: str, q: float) -> float:
        """Simulated request-latency quantile of one stage ("write"/"read")."""
        histogram = self.stages.histogram(stage)
        if histogram is None:
            return 0.0
        return histogram.quantile(q)

    @property
    def wear_imbalance(self) -> float:
        """Hottest shard's line writes over the per-shard mean (1.0 = even)."""
        writes = [summary.wear.total_line_writes for summary in self.shards]
        if not writes or not sum(writes):
            return 0.0
        return max(writes) / (sum(writes) / len(writes))

    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-shaped snapshot (what ``--json`` serialises)."""
        return {
            "config": dict(self.config),
            "merged": self.merged.to_dict(),
            "stages": self.stages.to_dict(),
            "shards": [summary.to_dict() for summary in self.shards],
            "fallbacks": dict(self.fallbacks),
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ServiceReport":
        """Rebuild a service report from :meth:`to_dict` output."""
        return cls(
            config=dict(payload["config"]),
            merged=SimulationReport.from_dict(payload["merged"]),
            stages=StageAccumulator.from_dict(payload["stages"]),
            shards=tuple(
                ShardSummary.from_dict(entry) for entry in payload["shards"]
            ),
            fallbacks={k: float(v) for k, v in payload["fallbacks"].items()},
        )

    def render(self) -> str:
        """Human-readable service summary (the ``repro serve`` stdout)."""
        merged = self.merged
        tenants = sum(summary.tenants for summary in self.shards)
        offered = sum(summary.offered for summary in self.shards)
        admitted = sum(summary.admitted for summary in self.shards)
        deferred = sum(summary.deferred for summary in self.shards)
        rejected = sum(summary.rejected for summary in self.shards)
        lines = [
            f"service: {len(self.shards)} shard(s), {tenants} tenant(s), "
            f"{sum(s.accesses for s in self.shards)} request(s)",
            f"  admission: {offered} offered, {admitted} admitted, "
            f"{deferred} deferred, {rejected} rejected",
            f"  dedup: {merged.stats.writes_deduplicated}/"
            f"{merged.stats.writes_requested} writes eliminated "
            f"(ratio {self.dedup_ratio:.4f})",
            f"  latency: write p50 {self.latency_quantile_ns('write', 50):.1f} ns, "
            f"p99 {self.latency_quantile_ns('write', 99):.1f} ns; "
            f"read p50 {self.latency_quantile_ns('read', 50):.1f} ns, "
            f"p99 {self.latency_quantile_ns('read', 99):.1f} ns",
            f"  wear: {merged.wear.total_line_writes} line write(s), "
            f"imbalance {self.wear_imbalance:.3f} (max/mean across shards)",
            f"  makespan: {merged.makespan_ns:.1f} ns, ipc {merged.ipc:.4f}",
        ]
        if self.fallbacks:
            reasons = ", ".join(
                f"{name.split('.', 2)[2]}={int(value)}"
                for name, value in sorted(self.fallbacks.items())
            )
            lines.append(f"  FALLBACKS: {reasons} (shards fell off the fused path)")
        else:
            lines.append("  fused path: no batch fallbacks")
        header = "  shard  tenants   accesses    dedup   line-writes   max-line"
        lines.append(header)
        for summary in self.shards:
            lines.append(
                f"  {summary.shard:>5}  {summary.tenants:>7}  {summary.accesses:>9}  "
                f"{summary.dedup_ratio:>7.4f}  {summary.wear.total_line_writes:>11}  "
                f"{summary.wear.max_line_writes:>9}"
            )
        return "\n".join(lines)

    def wear_table_csv(self) -> str:
        """Per-shard wear-balance table (the CI artifact)."""
        rows = [
            "shard,tenants,line_writes,bit_flips,max_line_writes,distinct_lines"
        ]
        for summary in self.shards:
            wear = summary.wear
            rows.append(
                f"{summary.shard},{summary.tenants},{wear.total_line_writes},"
                f"{wear.total_bit_flips},{wear.max_line_writes},"
                f"{wear.distinct_lines_written}"
            )
        return "\n".join(rows) + "\n"

    def dedup_table_csv(self) -> str:
        """Per-shard dedup-ratio table (the CI artifact)."""
        rows = ["shard,writes_requested,writes_deduplicated,dedup_ratio"]
        for summary in self.shards:
            rows.append(
                f"{summary.shard},{summary.writes_requested},"
                f"{summary.writes_deduplicated},{summary.dedup_ratio:.6f}"
            )
        total = self.merged.stats
        rows.append(
            f"pool,{total.writes_requested},{total.writes_deduplicated},"
            f"{self.dedup_ratio:.6f}"
        )
        return "\n".join(rows) + "\n"
