"""Command-line interface: ``python -m repro``.

Subcommands:

- ``run``      — regenerate many figures at once on a parallel worker
  pool with a persistent result cache (the fast full reproduction);
  every run writes a ``manifest.json`` recording exactly what produced
  the output (see :mod:`repro.obs.manifest`);
- ``trace``    — run one figure's pipeline with the structured tracer
  attached and print the per-stage latency breakdown (p50/p95/p99);
  ``--out`` streams the raw span records as JSONL; ``--chrome`` exports
  the spans in Chrome trace-event format (sim-time timeline, worker
  lanes), either from the run just traced or from an existing JSONL
  file via ``--from-jsonl``;
- ``watch``    — live terminal dashboard over the event stream a run
  emits with ``run --events``: jobs in flight, warm-cache hit rate,
  throughput, ETA from the content-keyed plan, and the stage split when
  snapshots carry one (see :mod:`repro.obs.watch`);
- ``ledger``   — append-only cross-run index over bench records and run
  manifests (``ledger add``/``ledger ls``; see :mod:`repro.obs.ledger`);
- ``trend``    — per-case time series across the committed bench anchors
  (or a ledger file) with step-regression flags and stage-drift
  attribution;
- ``profile``  — run one figure's pipeline with the summary-mode stage
  accumulator and the batch profiler attached: the stage table is
  deterministic, and ``--flamegraph`` writes collapsed-stack lines with
  sim-ns weights; ``--manifest`` records the stage section for ``diff``;
- ``stats``    — validate and summarise a run manifest (``--json`` emits
  the machine-readable digest the ``diff`` verb and CI consume);
- ``timeline`` — run windowed simulations and print the in-run
  time-series (dedup ratio, write reduction, cache hit rate, bank waits,
  bit flips per sim-time window); ``--manifest`` records the merged
  timeline in a run manifest for later ``diff``;
- ``faults``   — deterministic fault-injection campaign: crash each
  controller at seeded points, recover its metadata under each
  persistence policy, audit every written line against the replay
  oracle and print the vulnerability-window table; ``--manifest``
  records the verdicts for later ``diff`` (see :mod:`repro.faults`);
- ``wear``     — render per-bank / per-region wear tables, an ASCII
  address-space heatmap and a projected-lifetime panel vs a baseline;
- ``diff``     — compare two run manifests (plus optional JSONL traces
  and figure-JSON directories): deterministic counter/timeline drift
  gates the exit code, wall-clock deltas are informational;
- ``bench``    — time the hot paths (controller loops, hash circuits,
  metadata cache), write a ``BENCH_<gitsha>.json`` record and optionally
  gate against a baseline record (``--check``) or against *every*
  committed anchor in a directory (``--gate``);
- ``serve``    — run the sharded multi-tenant dedup-memory service:
  synthesize seeded zipfian tenant traffic, drive it through N data-plane
  shards under deterministic admission control, and report cross-tenant
  dedup ratio, per-shard wear balance and p50/p99 simulated latency
  (``--events`` streams lifecycle records for ``repro watch``);
- ``loadgen``  — synthesize the same seeded traffic plan without running
  a simulation: per-shard tenant/access balance, admission outcomes and
  a content census predicting the dedup ratio;
- ``compare``  — run one application under the traditional secure NVM and
  under DeWrite, print the side-by-side report;
- ``figure``   — regenerate one of the paper's tables/figures by id;
- ``regress``  — compare two exported figure JSONs for drift;
- ``check``    — run the simlint static rules and/or the runtime
  invariant pass (see :mod:`repro.check`);
- ``list``     — enumerate figure ids, applications and controllers.

Figure ids come from the declarative experiment registry
(:mod:`repro.analysis.registry`); controllers are built through the
controller registry (:mod:`repro.core.registry`).  ``run``, ``figure``
and ``compare`` share the cache options ``--parallel`` / ``--cache-dir``
/ ``--no-cache`` / ``--job-timeout``.

Examples::

    python -m repro run --parallel 8
    python -m repro run system modes --apps lbm,mcf --accesses 5000
    python -m repro run --parallel 4 --events /tmp/events.jsonl
    python -m repro watch /tmp/events.jsonl --once
    python -m repro trace fig14 --out /tmp/trace.jsonl
    python -m repro trace --from-jsonl /tmp/trace.jsonl --chrome /tmp/trace.chrome.json
    python -m repro ledger add benchmarks/results/BENCH_*.json
    python -m repro trend benchmarks/results
    python -m repro profile fig14 --flamegraph /tmp/stages.folded
    python -m repro stats manifest.json
    python -m repro timeline system --apps lbm --window-ns 2e5 --csv tl.csv
    python -m repro faults system --apps lbm --points 0.5 --cell-faults 2
    python -m repro wear fig12 --app lbm --metric flips
    python -m repro diff old/manifest.json new/manifest.json
    python -m repro bench --out bench/ --check bench/BENCH_abc123.json
    python -m repro serve --tenants 1000000 --shards 8 --accesses 250000
    python -m repro loadgen --tenants 1000000 --shards 8 --json plan.json
    python -m repro compare --app lbm --accesses 20000
    python -m repro figure fig13 --apps lbm,mcf,vips
    python -m repro check --lint src/repro
    python -m repro list
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Callable

from repro.analysis import experiments as ex
from repro.analysis import registry as figures
from repro.workloads.profiles import ALL_PROFILES, profile_by_name


def _positive_int(text: str) -> int:
    """argparse type of every ``--accesses``: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_settings_args(parser: argparse.ArgumentParser, default_accesses: int) -> None:
    parser.add_argument("--apps", default="", help="comma-separated subset (default: all)")
    parser.add_argument("--accesses", type=_positive_int, default=default_accesses)
    parser.add_argument("--seed", type=int, default=1)


def _add_traffic_args(parser: argparse.ArgumentParser) -> None:
    """The seeded multi-tenant traffic knobs shared by serve and loadgen."""
    parser.add_argument("--tenants", type=int, default=1_000_000,
                        help="addressable tenant population (default 1,000,000)")
    parser.add_argument("--accesses", type=_positive_int, default=250_000,
                        help="global interleaved access budget (default 250,000)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--zipf", type=float, default=1.1, dest="zipf_s",
                        help="zipf skew of tenant popularity (default 1.1)")
    parser.add_argument("--overlap", type=float, default=0.35,
                        help="cross-tenant shared-content write fraction (default 0.35)")
    parser.add_argument("--pool-lines", type=int, default=4096,
                        help="shared content pool size in lines (default 4096)")
    parser.add_argument("--lines-per-tenant", type=int, default=64,
                        help="address window carved per tenant (default 64 lines)")
    parser.add_argument("--read-fraction", type=float, default=0.3,
                        help="read share of admitted accesses (default 0.3)")
    parser.add_argument("--persistent-fraction", type=float, default=0.05,
                        help="flush+fence-ordered write share (default 0.05)")


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="worker processes for cache misses (default 1: serial)",
    )
    parser.add_argument(
        "--cache-dir", default="", metavar="DIR",
        help="result cache location (default: $REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the on-disk result cache for this invocation",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=600.0, metavar="SECONDS",
        help="per-job wall-clock budget before retry (default 600)",
    )


class _VerbParser(argparse.ArgumentParser):
    """A verb's parser; ``populate``, if set, adds its options on first parse,
    so a verb whose defaults live in a subsystem (``faults`` reads
    :mod:`repro.faults.plan`) imports it only when that verb runs."""

    populate: Callable[[argparse.ArgumentParser], None] | None = None

    def parse_known_args(self, args: Any = None, namespace: Any = None) -> Any:
        populate, self.populate = self.populate, None
        if populate is not None:
            populate(self)
        return super().parse_known_args(args, namespace)


def _add_faults_args(faults: argparse.ArgumentParser) -> None:
    from repro.faults.plan import CELL_FAULT_MODES, DEFAULT_POINTS, DEFAULT_POLICIES

    faults.add_argument(
        "figure",
        help="figure id or paper alias labelling the campaign (e.g. 'system')",
    )
    _add_settings_args(faults, default_accesses=4_000)
    _add_cache_args(faults)
    faults.add_argument(
        "--controllers", default="", metavar="NAMES",
        help="comma-separated controller subset (default: all registered)",
    )
    faults.add_argument(
        "--policies", default=",".join(DEFAULT_POLICIES), metavar="NAMES",
        help="comma-separated persistence policies "
             f"(default: {','.join(DEFAULT_POLICIES)})",
    )
    faults.add_argument(
        "--points", default=",".join(str(p) for p in DEFAULT_POINTS),
        metavar="FRACTIONS",
        help="crash points as trace fractions in (0, 1] "
             f"(default {','.join(str(p) for p in DEFAULT_POINTS)})",
    )
    faults.add_argument(
        "--interval-ns", type=float, default=100_000.0, metavar="NS",
        help="periodic-writeback flush interval in ns (default 1e5)",
    )
    faults.add_argument(
        "--cell-faults", type=int, default=0, metavar="N",
        help="wear-correlated cell faults injected at the crash instant (default 0)",
    )
    faults.add_argument(
        "--cell-fault-mode", choices=CELL_FAULT_MODES, default="bit_flip",
        help="cell fault model (default bit_flip)",
    )
    faults.add_argument(
        "--drop-probability", type=float, default=0.0, metavar="P",
        help="probability each droppable metadata persist is torn (default 0)",
    )
    faults.add_argument(
        "--json", default="", metavar="PATH",
        help="also dump every scenario verdict as JSON",
    )
    faults.add_argument(
        "--manifest", default="", metavar="PATH",
        help="also write a run manifest embedding the faults section",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DeWrite (MICRO 2018) reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_VerbParser)

    run = sub.add_parser(
        "run", help="regenerate figures on a parallel worker pool with a result cache"
    )
    run.add_argument(
        "figures", nargs="*", metavar="FIGURE",
        help="figure ids to regenerate (default: every registered figure)",
    )
    _add_settings_args(run, default_accesses=20_000)
    _add_cache_args(run)
    run.add_argument(
        "--out", default="", metavar="DIR",
        help="also write each rendered table to DIR/<figure>.txt",
    )
    run.add_argument(
        "--progress", action="store_true",
        help="print one line per resolved job on stderr "
             "(default: on when --parallel > 1)",
    )
    run.add_argument(
        "--manifest", default="manifest.json", metavar="PATH",
        help="where to write the run manifest (default: ./manifest.json)",
    )
    run.add_argument(
        "--no-manifest", action="store_true",
        help="skip writing the run manifest",
    )
    run.add_argument(
        "--events", default="", metavar="PATH",
        help="stream schema-v1 lifecycle events to PATH "
             "(JSONL file, or an existing unix socket a `repro watch` holds)",
    )

    trace = sub.add_parser(
        "trace", help="trace one figure's pipeline; print per-stage latency percentiles"
    )
    trace.add_argument(
        "figure", nargs="?", default="",
        help="figure id or paper alias (fig14/fig16/fig17/fig19 resolve to "
             "'system'; optional with --from-jsonl)",
    )
    trace.add_argument("--app", default="lbm", help="workload to trace (default lbm)")
    trace.add_argument("--accesses", type=_positive_int, default=2_000)
    trace.add_argument("--seed", type=int, default=1)
    trace.add_argument(
        "--controller", default="dewrite",
        help="controller to instrument (default dewrite; see `list`)",
    )
    trace.add_argument(
        "--out", default="", metavar="PATH",
        help="stream raw span/event records to PATH as JSONL",
    )
    trace.add_argument(
        "--chrome", default="", metavar="PATH",
        help="export the trace in Chrome trace-event format to PATH "
             "(open in chrome://tracing or Perfetto)",
    )
    trace.add_argument(
        "--from-jsonl", default="", metavar="PATH", dest="from_jsonl",
        help="convert an existing trace JSONL instead of running a simulation "
             "(requires --chrome)",
    )

    watch = sub.add_parser(
        "watch", help="live dashboard over a run's event stream (see run --events)"
    )
    watch.add_argument(
        "target",
        help="events.jsonl path, a run directory containing events.jsonl, "
             "or (with --socket) a unix socket path to bind",
    )
    watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh interval (default 0.5)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render one frame from the stream's current state and exit",
    )
    watch.add_argument(
        "--socket", action="store_true",
        help="bind TARGET as a unix datagram socket and watch live "
             "(start the watcher first, then `repro run --events TARGET`)",
    )
    watch.add_argument(
        "--max-wait", type=float, default=0.0, metavar="SECONDS",
        help="give up after this much wall time without run_finished "
             "(default 0: wait indefinitely)",
    )

    ledger = sub.add_parser(
        "ledger", help="append-only cross-run index over bench records and manifests"
    )
    ledger.add_argument("action", choices=("add", "ls"), help="add records / list entries")
    ledger.add_argument(
        "records", nargs="*", metavar="FILE",
        help="bench BENCH_*.json or manifest.json files to index (for `add`)",
    )
    ledger.add_argument(
        "--ledger", default="ledger.json", metavar="PATH", dest="ledger_path",
        help="ledger file location (default: ./ledger.json)",
    )
    ledger.add_argument(
        "--json", action="store_true", help="emit `ls` output as JSON"
    )

    trend = sub.add_parser(
        "trend", help="per-case bench time series across commits, with regression flags"
    )
    trend.add_argument(
        "source", nargs="?", default="benchmarks/results",
        help="ledger file or directory of BENCH_*.json anchors "
             "(default: benchmarks/results)",
    )
    trend.add_argument(
        "--threshold", type=float, default=0.30,
        help="relative step-regression threshold (default 30 %%)",
    )
    trend.add_argument(
        "--json", action="store_true", help="emit the trend report as JSON"
    )

    profile = sub.add_parser(
        "profile",
        help="profile one figure's pipeline on the fused fast path "
        "(summary-mode stages + per-batch wall timing)",
    )
    profile.add_argument(
        "figure",
        help="figure id or paper alias (fig14/fig16/fig17/fig19 resolve to 'system')",
    )
    profile.add_argument("--app", default="lbm", help="workload to profile (default lbm)")
    profile.add_argument("--accesses", type=_positive_int, default=2_000)
    profile.add_argument("--seed", type=int, default=1)
    profile.add_argument(
        "--controller", default="dewrite",
        help="controller to profile (default dewrite; see `list`)",
    )
    profile.add_argument(
        "--flamegraph", default="", metavar="PATH",
        help="write collapsed-stack flamegraph lines (sim-ns weights) to PATH",
    )
    profile.add_argument(
        "--json", default="", metavar="PATH",
        help="write the full profile payload (stages + wall section) to PATH",
    )
    profile.add_argument(
        "--manifest", default="", metavar="PATH",
        help="write a run manifest carrying the stage section (for `repro diff`)",
    )

    stats = sub.add_parser("stats", help="validate and summarise a run manifest")
    stats.add_argument(
        "manifest", nargs="?", default="manifest.json",
        help="manifest path (default: ./manifest.json)",
    )
    stats.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable summary digest as JSON "
             "(what `repro diff` and CI consume)",
    )

    timeline = sub.add_parser(
        "timeline", help="windowed in-run time-series for one figure's workloads"
    )
    timeline.add_argument(
        "figure",
        help="figure id or paper alias (labels the run; fig14 etc. resolve to 'system')",
    )
    _add_settings_args(timeline, default_accesses=20_000)
    _add_cache_args(timeline)
    timeline.add_argument(
        "--controller", default="dewrite",
        help="controller to sample (default dewrite; see `list`)",
    )
    timeline.add_argument(
        "--window-ns", type=float, default=1e6, metavar="NS",
        help="sim-time window width in ns (default 1e6)",
    )
    timeline.add_argument(
        "--max-rows", type=int, default=40,
        help="cap on printed windows (default 40; export is never capped)",
    )
    timeline.add_argument(
        "--csv", default="", metavar="PATH", help="also export every window as CSV"
    )
    timeline.add_argument(
        "--jsonl", default="", metavar="PATH",
        help="also export one JSON object per window as JSONL",
    )
    timeline.add_argument(
        "--manifest", default="", metavar="PATH",
        help="also write a run manifest embedding the merged timeline",
    )

    sub.add_parser(
        "faults", help="crash/recover/audit campaign across persistence policies"
    ).populate = _add_faults_args

    wear = sub.add_parser(
        "wear", help="wear heatmap, per-bank/per-region tables and lifetime panel"
    )
    wear.add_argument(
        "figure",
        help="figure id or paper alias (labels the run; fig12/fig13 are the wear figures)",
    )
    wear.add_argument("--app", default="lbm", help="workload to run (default lbm)")
    wear.add_argument("--accesses", type=_positive_int, default=20_000)
    wear.add_argument("--seed", type=int, default=1)
    wear.add_argument(
        "--controller", default="dewrite",
        help="controller under test (default dewrite)",
    )
    wear.add_argument(
        "--baseline", default="secure-nvm",
        help="baseline controller for the lifetime panel (default secure-nvm; "
             "'none' skips the second run)",
    )
    wear.add_argument("--rows", type=int, default=8, help="heatmap rows (default 8)")
    wear.add_argument("--cols", type=int, default=32, help="heatmap columns (default 32)")
    wear.add_argument(
        "--regions", type=int, default=8,
        help="contiguous address regions in the wear table (default 8)",
    )
    wear.add_argument(
        "--metric", choices=("writes", "flips"), default="writes",
        help="heatmap intensity metric (default writes)",
    )
    wear.add_argument(
        "--csv", default="", metavar="PATH", help="also export the heatmap grid as CSV"
    )

    diff = sub.add_parser(
        "diff", help="compare two run manifests (and optional traces/figures)"
    )
    diff.add_argument("manifest_a", help="reference run manifest")
    diff.add_argument("manifest_b", help="current run manifest")
    diff.add_argument(
        "--trace-a", default="", metavar="PATH",
        help="JSONL trace of run A (enables per-stage percentile deltas)",
    )
    diff.add_argument(
        "--trace-b", default="", metavar="PATH", help="JSONL trace of run B"
    )
    diff.add_argument(
        "--figures-a", default="", metavar="DIR",
        help="directory of figure JSONs from run A (enables figure drift)",
    )
    diff.add_argument(
        "--figures-b", default="", metavar="DIR",
        help="directory of figure JSONs from run B",
    )
    diff.add_argument(
        "--tolerance", type=float, default=0.05,
        help="relative tolerance for stage/figure comparisons (default 5 %%)",
    )
    diff.add_argument(
        "--json", action="store_true", help="emit the full diff as JSON"
    )

    bench = sub.add_parser(
        "bench", help="microbenchmark the hot paths; write/gate BENCH_<gitsha>.json"
    )
    bench.add_argument("--accesses", type=_positive_int, default=1_200,
                       help="trace length per controller case (default 1200)")
    bench.add_argument("--repeats", type=int, default=3,
                       help="interleaved repeats; best is kept (default 3)")
    bench.add_argument("--seed", type=int, default=1)
    bench.add_argument(
        "--controllers", default="", metavar="NAMES",
        help="comma-separated controller subset (default: all registered)",
    )
    bench.add_argument(
        "--out", default=".", metavar="DIR",
        help="directory for the BENCH_<gitsha>.json record (default .)",
    )
    bench.add_argument(
        "--check", default="", metavar="BASELINE",
        help="baseline BENCH_*.json to gate against (exit 1 on regression)",
    )
    bench.add_argument(
        "--gate", default="", metavar="DIR",
        help="gate against every BENCH_*.json anchor in DIR at once "
             "(composite per-case-best baseline; exit 1 on regression)",
    )
    bench.add_argument(
        "--threshold", type=float, default=0.30,
        help="relative regression threshold for --check/--gate (default 30 %%)",
    )

    compare = sub.add_parser("compare", help="baseline vs DeWrite on one application")
    compare.add_argument("--app", default="lbm", help="application name (see `list`)")
    compare.add_argument("--accesses", type=_positive_int, default=20_000)
    compare.add_argument("--seed", type=int, default=1)
    _add_cache_args(compare)

    figure = sub.add_parser("figure", help="regenerate one paper table/figure")
    figure.add_argument("id", choices=figures.experiment_ids())
    _add_settings_args(figure, default_accesses=20_000)
    _add_cache_args(figure)
    figure.add_argument(
        "--chart", default="", metavar="COLUMN",
        help="also render COLUMN as an ASCII bar chart",
    )
    figure.add_argument(
        "--json", default="", metavar="PATH", help="also dump the table as JSON"
    )

    regress = sub.add_parser(
        "regress", help="compare two exported figure JSONs for drift"
    )
    regress.add_argument("reference", help="reference JSON (from figure --json)")
    regress.add_argument("current", help="current JSON to check")
    regress.add_argument("--tolerance", type=float, default=0.05,
                         help="relative tolerance per cell (default 5 %%)")

    check = sub.add_parser(
        "check", help="simulator lint (SIM001-SIM104) and runtime invariant checks"
    )
    check.add_argument(
        "paths", nargs="*",
        help="files/directories to lint (default: the installed repro package)",
    )
    check.add_argument(
        "--lint", action="store_true", help="run only the static lint pass"
    )
    check.add_argument(
        "--invariants", action="store_true", help="run only the runtime invariant pass"
    )
    check.add_argument(
        "--accesses", type=_positive_int, default=4_000,
        help="trace length for the invariant pass (default 4000)",
    )
    check.add_argument("--seed", type=int, default=1)
    check.add_argument(
        "--json", action="store_true", dest="json_output",
        help="print the lint report as JSON instead of text",
    )
    check.add_argument(
        "--sarif", default="", metavar="PATH",
        help="also write the lint report as SARIF 2.1.0 to PATH",
    )
    check.add_argument(
        "--baseline", default="", metavar="PATH",
        help="suppress findings recorded in this baseline file "
             "(default: nearest simlint-baseline.json above the first target)",
    )
    check.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file and report every finding",
    )
    check.add_argument(
        "--write-baseline", default="", metavar="PATH",
        help="record the current findings as the new baseline and exit 0",
    )

    serve = sub.add_parser(
        "serve",
        help="run the sharded multi-tenant dedup-memory service over seeded traffic",
    )
    _add_traffic_args(serve)
    serve.add_argument("--shards", type=int, default=8,
                       help="data-plane shard count (default 8)")
    serve.add_argument("--controller", default="dewrite",
                       help="controller each shard runs (default dewrite)")
    serve.add_argument("--quota", type=int, default=0, metavar="N",
                       help="per-tenant admitted-access quota (0 = unbounded)")
    serve.add_argument("--max-slots", type=int, default=0, metavar="N",
                       help="per-shard tenant address-slot cap (0 = unbounded)")
    _add_cache_args(serve)
    serve.add_argument("--events", default="", metavar="PATH",
                       help="emit lifecycle events (JSONL file or watch socket)")
    serve.add_argument("--json", default="", dest="json_out", metavar="PATH",
                       help="write the service report as canonical JSON")
    serve.add_argument("--tables", default="", metavar="DIR",
                       help="write wear-balance and dedup-ratio CSV tables to DIR")
    serve.add_argument("--progress", action="store_true",
                       help="print one line per resolved shard job")

    loadgen = sub.add_parser(
        "loadgen",
        help="synthesize the seeded multi-tenant traffic plan without simulating",
    )
    _add_traffic_args(loadgen)
    loadgen.add_argument("--shards", type=int, default=8,
                         help="shard count the plan routes over (default 8)")
    loadgen.add_argument("--quota", type=int, default=0, metavar="N",
                         help="per-tenant admitted-access quota (0 = unbounded)")
    loadgen.add_argument("--max-slots", type=int, default=0, metavar="N",
                         help="per-shard tenant address-slot cap (0 = unbounded)")
    loadgen.add_argument("--json", default="", dest="json_out", metavar="PATH",
                         help="write the plan as canonical JSON")

    sub.add_parser("list", help="list figure ids, applications and controllers")
    return parser


def _settings(args: argparse.Namespace) -> ex.ExperimentSettings:
    if getattr(args, "apps", ""):
        applications = tuple(name.strip() for name in args.apps.split(",") if name.strip())
    else:
        applications = tuple(p.name for p in ALL_PROFILES)
    return ex.ExperimentSettings(
        accesses=args.accesses, seed=args.seed, applications=applications
    )


def _configure_runner(args: argparse.Namespace):
    """Install the CLI's result provider; returns the cache (or None)."""
    from repro.runner import provider
    from repro.runner.cache import ResultCache

    if getattr(args, "no_cache", False):
        provider.configure(cache=None)
        return None
    cache_dir = getattr(args, "cache_dir", "")
    cache = ResultCache(cache_dir) if cache_dir else ResultCache()
    provider.configure(cache=cache)
    return cache


def _warm_jobs(args: argparse.Namespace, jobs, cache, progress=None, events=None):
    """Resolve planned jobs (parallel when requested); returns the report."""
    from repro.obs.events import NULL_EVENTS
    from repro.runner.engine import run_jobs

    return run_jobs(
        jobs,
        parallel=getattr(args, "parallel", 1),
        cache=cache,
        job_timeout_s=getattr(args, "job_timeout", 600.0),
        progress=progress,
        events=events if events is not None else NULL_EVENTS,
    )


def _event_bus(path: str):
    """Build the run's event bus for ``--events PATH``.

    An existing unix socket at PATH (a waiting ``repro watch --socket``)
    gets a datagram sink; anything else is treated as a JSONL file.
    """
    import pathlib

    from repro.obs.events import EventBus, SocketSink
    from repro.obs.sinks import JsonlSink

    target = pathlib.Path(path)
    if target.exists() and target.is_socket():
        return EventBus(SocketSink(target))
    return EventBus(JsonlSink(path))


def _run_run(args: argparse.Namespace) -> int:
    from repro.runner.engine import stderr_progress

    settings = _settings(args)
    requested = list(args.figures) if args.figures else figures.experiment_ids()
    ids: list[str] = []
    for spec_id in requested:
        resolved = figures.resolve_id(spec_id)
        figures.experiment(resolved)  # raises with the known ids on a typo
        if resolved not in ids:
            ids.append(resolved)

    cache = _configure_runner(args)
    jobs = figures.plan_for(ids, settings)
    show_progress = args.progress or args.parallel > 1
    events = _event_bus(args.events) if args.events else None
    try:
        report = _warm_jobs(
            args, jobs, cache,
            progress=stderr_progress if show_progress else None,
            events=events,
        )
    finally:
        if events is not None:
            events.close()
    if events is not None:
        print(
            f"events: {events.emitted} emitted, {events.dropped} dropped "
            f"-> {args.events}",
            file=sys.stderr,
        )
    for failure in report.failures:
        print(
            f"run: FAILED {failure.spec.label} after {failure.attempts} attempt(s): "
            f"{failure.error}",
            file=sys.stderr,
        )

    out_dir = None
    if args.out:
        import pathlib

        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)

    rendered = 0
    for spec_id in ids:
        spec = figures.experiment(spec_id)
        try:
            table = spec.render(settings)
        except Exception as exc:  # noqa: BLE001 — keep rendering the other figures
            print(f"run: render of {spec_id} failed: {exc}", file=sys.stderr)
            continue
        text = table.render()
        if rendered:
            print()
        print(text)
        rendered += 1
        if out_dir is not None:
            (out_dir / f"{spec_id}.txt").write_text(text + "\n")

    print(report.cache_stats_line(), file=sys.stderr)
    if not args.no_manifest:
        path = _write_run_manifest(args, ids, settings, report, show_progress)
        print(f"manifest: {path}", file=sys.stderr)
    return 0 if report.ok and rendered == len(ids) else 1


def _write_run_manifest(args, ids, settings, report, show_progress, timeline=None,
                        faults=None):
    from repro.obs.manifest import build_manifest, write_manifest
    from repro.obs.metrics import registry as metrics_registry

    payload = build_manifest(
        timeline=timeline,
        faults=faults,
        figures=ids,
        settings={
            "accesses": settings.accesses,
            "seed": settings.seed,
            "applications": list(settings.applications),
        },
        options={
            "parallel": args.parallel,
            "cache": not args.no_cache,
            "job_timeout_s": args.job_timeout,
            "progress": show_progress,
        },
        jobs=report.job_timings,
        cache={
            "planned": report.planned,
            "unique": report.unique,
            "disk_hits": report.disk_hits,
            "executed": report.executed,
            "simulations": report.simulations,
            "retries": report.retries,
        },
        failures=[
            {"label": f.spec.label, "error": f.error, "attempts": f.attempts}
            for f in report.failures
        ],
        elapsed_s=report.elapsed_s,
        metrics=metrics_registry().to_dict(),
    )
    return write_manifest(args.manifest, payload)


def _run_trace(args: argparse.Namespace) -> int:
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.obs.sinks import JsonlSink
    from repro.obs.trace import Tracer, percentile
    from repro.runner.jobs import trace_for
    from repro.system.simulator import simulate

    if args.from_jsonl:
        # Pure conversion: an existing trace JSONL becomes a Chrome
        # trace-event file, no simulation involved.
        if not args.chrome:
            print("trace: --from-jsonl requires --chrome OUT", file=sys.stderr)
            return 2
        from repro.obs.chrome import read_trace_jsonl, write_chrome_trace

        try:
            path = write_chrome_trace(read_trace_jsonl(args.from_jsonl), args.chrome)
        except (OSError, ValueError) as error:
            print(f"trace: {error}", file=sys.stderr)
            return 2
        print(f"wrote Chrome trace to {path}")
        return 0
    if not args.figure:
        print("trace: a figure id is required (or use --from-jsonl)", file=sys.stderr)
        return 2

    spec = figures.resolve_experiment(args.figure)
    workload = trace_for(args.app, args.accesses, args.seed)
    sink = JsonlSink(args.out) if args.out else None
    tracer = Tracer(sink=sink)
    tracer.set_context(
        figure=spec.id, app=args.app, controller=args.controller, seed=args.seed
    )
    controller = build_controller(args.controller, NvmMainMemory(), tracer=tracer)
    simulate(controller, workload)
    tracer.close()

    stages = tracer.stage_durations(clock="sim")
    print(
        f"{spec.id} ({spec.anchor}) — {args.controller} on {args.app}, "
        f"{args.accesses} accesses, seed {args.seed}"
    )
    print(f"{'stage':16s}{'count':>8s}{'mean ns':>10s}{'p50 ns':>10s}"
          f"{'p95 ns':>10s}{'p99 ns':>10s}{'max ns':>10s}")
    for name in sorted(stages):
        durations = sorted(stages[name])
        mean = sum(durations) / len(durations)
        print(
            f"{name:16s}{len(durations):8d}{mean:10.1f}"
            f"{percentile(durations, 50):10.1f}{percentile(durations, 95):10.1f}"
            f"{percentile(durations, 99):10.1f}{durations[-1]:10.1f}"
        )
    if args.out:
        print(f"\nwrote {len(tracer.records)} records to {args.out}")
    if args.chrome:
        from repro.obs.chrome import write_chrome_trace

        path = write_chrome_trace(tracer.records, args.chrome)
        print(f"wrote Chrome trace to {path}")
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    import time as _time
    from pathlib import Path

    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.obs.metrics import registry as metrics_registry
    from repro.obs.profile import (
        BatchProfiler,
        render_stage_table,
        render_wall_summary,
    )
    from repro.runner.jobs import trace_for
    from repro.system.simulator import simulate

    spec = figures.resolve_experiment(args.figure)
    workload = trace_for(args.app, args.accesses, args.seed)
    controller = build_controller(args.controller, NvmMainMemory())
    profiler = BatchProfiler(controller)
    started = _time.perf_counter()
    with profiler:
        simulate(controller, workload)
    elapsed_s = _time.perf_counter() - started

    print(
        f"{spec.id} ({spec.anchor}) — {args.controller} on {args.app}, "
        f"{args.accesses} accesses, seed {args.seed}"
    )
    print(render_stage_table(profiler))
    print(render_wall_summary(profiler))
    if args.flamegraph:
        lines = profiler.collapsed_stacks()
        Path(args.flamegraph).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote {len(lines)} flamegraph frame(s) to {args.flamegraph}", file=sys.stderr)
    if args.json:
        import json

        Path(args.json).write_text(
            json.dumps(profiler.report(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"wrote profile payload to {args.json}", file=sys.stderr)
    if args.manifest:
        from repro.obs.manifest import build_manifest, write_manifest

        payload = build_manifest(
            figures=[spec.id],
            settings={
                "accesses": args.accesses,
                "seed": args.seed,
                "applications": [args.app],
            },
            options={"controller": args.controller, "command": "profile"},
            jobs=[],
            cache={
                "planned": 1, "unique": 1, "disk_hits": 0,
                "executed": 1, "simulations": 1, "retries": 0,
            },
            failures=[],
            elapsed_s=elapsed_s,
            metrics=metrics_registry().to_dict(),
            stages=profiler.stages.to_dict(),
        )
        path = write_manifest(args.manifest, payload)
        print(f"manifest: {path}", file=sys.stderr)
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    from repro.obs.manifest import (
        ManifestError,
        load_manifest,
        summarize_manifest,
        validate_manifest,
    )

    try:
        payload = load_manifest(args.manifest, validate=False)
    except ManifestError as error:
        print(f"stats: {error}", file=sys.stderr)
        return 1
    if args.json:
        import json

        summary = summarize_manifest(payload)
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["valid"] else 1

    problems = validate_manifest(payload)
    print(f"manifest: {args.manifest}")
    print(f"  command:   {' '.join(payload.get('command', []) or ['?'])}")
    print(f"  git sha:   {payload.get('git_sha') or 'unknown'}")
    print(f"  python:    {payload.get('python', '?')}")
    print(f"  figures:   {', '.join(payload.get('figures', []) or ['-'])}")
    settings = payload.get("settings", {})
    if isinstance(settings, dict):
        print(
            f"  settings:  accesses={settings.get('accesses')} seed={settings.get('seed')} "
            f"apps={','.join(settings.get('applications', []) or [])}"
        )
    jobs = payload.get("jobs", [])
    if isinstance(jobs, list):
        by_source: dict[str, int] = {}
        for job in jobs:
            if isinstance(job, dict):
                by_source[str(job.get("source"))] = by_source.get(str(job.get("source")), 0) + 1
        summary = ", ".join(f"{count} {source}" for source, count in sorted(by_source.items()))
        print(f"  jobs:      {len(jobs)} ({summary or 'none'})")
        timed = [j for j in jobs if isinstance(j, dict) and j.get("source") == "executed"]
        for job in sorted(timed, key=lambda j: -float(j.get("compute_s", 0.0)))[:5]:
            print(
                f"    {job.get('label', '?'):40s} compute {float(job.get('compute_s', 0)):6.2f}s "
                f"queue {float(job.get('queue_s', 0)):6.2f}s x{job.get('attempts', 1)}"
            )
    print(f"  elapsed:   {payload.get('elapsed_s', 0):.1f}s")
    if payload.get("peak_rss_kb") is not None:
        print(f"  peak RSS:  {payload['peak_rss_kb'] / 1024:.0f} MiB")
    timeline = payload.get("timeline")
    if isinstance(timeline, dict):
        windows = timeline.get("windows", {})
        print(
            f"  timeline:  {len(windows) if isinstance(windows, dict) else 0} "
            f"window(s) x {float(timeline.get('window_ns', 0) or 0):g} ns"
        )
    faults = payload.get("faults")
    if isinstance(faults, dict):
        scenarios = faults.get("scenarios", [])
        print(
            f"  faults:    {len(scenarios) if isinstance(scenarios, list) else 0} "
            f"scenario(s), interval {float(faults.get('interval_ns', 0) or 0):g} ns"
        )
    stages = payload.get("stages")
    if isinstance(stages, dict):
        entries = stages.get("stages", {})
        samples = sum(
            entry.get("count", 0)
            for entry in (entries.values() if isinstance(entries, dict) else [])
            if isinstance(entry, dict)
        )
        print(
            f"  stages:    {len(entries) if isinstance(entries, dict) else 0} "
            f"stage(s), {samples} sample(s) (summary mode)"
        )
    metrics = payload.get("metrics", {})
    if isinstance(metrics, dict):
        # Surface how many batches the kernels merged from several streams.
        fallbacks = {
            name: entry.get("value", 0)
            for name, entry in sorted(metrics.items())
            if name.startswith("batch.fallback.") and isinstance(entry, dict)
        }
        if fallbacks:
            rendered = ", ".join(f"{name.rsplit('.', 1)[-1]}={value:g}"
                                 for name, value in fallbacks.items())
            print(f"  fallbacks: {rendered} (batches driven scalar)")
        # Live-telemetry stream health: environment counters like the
        # fallbacks above (a property of the attached sink, never drift).
        stream = {
            name: entry.get("value", 0)
            for name, entry in sorted(metrics.items())
            if name.startswith("events.") and isinstance(entry, dict)
        }
        if stream:
            rendered = ", ".join(f"{name.rsplit('.', 1)[-1]}={value:g}"
                                 for name, value in stream.items())
            print(f"  events:    {rendered} (live telemetry stream)")
    failures = payload.get("failures", [])
    if failures:
        print(f"  failures:  {len(failures)}")
        for failure in failures:
            if isinstance(failure, dict):
                print(f"    {failure.get('label', '?')}: {failure.get('error', '?')}")
    if problems:
        print(f"stats: manifest is INVALID ({len(problems)} problem(s)):")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("stats: manifest is valid")
    return 0


def _run_timeline(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.timeline import TimelineCollector, render_timeline, timeline_csv
    from repro.runner import provider
    from repro.runner.jobs import simulate_spec

    spec = figures.resolve_experiment(args.figure)
    settings = _settings(args)
    cache = _configure_runner(args)
    jobs = [
        simulate_spec(
            workload=app,
            controller=args.controller,
            accesses=settings.accesses,
            seed=settings.seed,
            experiment=spec.id,
            timeline_window_ns=args.window_ns,
        )
        for app in settings.applications
    ]
    report = _warm_jobs(args, jobs, cache)
    for failure in report.failures:
        print(
            f"timeline: FAILED {failure.spec.label}: {failure.error}", file=sys.stderr
        )
    if not report.ok:
        return 1

    merged = TimelineCollector(window_ns=args.window_ns)
    for job in jobs:
        payload = provider.active().get(job)
        merged.merge(TimelineCollector.from_dict(payload["timeline"]))

    print(
        f"{spec.id} ({spec.anchor}) — {args.controller} on "
        f"{', '.join(settings.applications)}, {settings.accesses} accesses, "
        f"seed {settings.seed}, window {args.window_ns:g} ns"
    )
    print(render_timeline(merged, max_rows=args.max_rows))
    if args.csv:
        Path(args.csv).write_text(timeline_csv(merged), encoding="utf-8")
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.jsonl:
        import json

        with Path(args.jsonl).open("w", encoding="utf-8") as handle:
            for row in merged.rows():
                handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(f"wrote {args.jsonl}", file=sys.stderr)
    if args.manifest:
        path = _write_run_manifest(
            args, [spec.id], settings, report, False, timeline=merged.to_dict()
        )
        print(f"manifest: {path}", file=sys.stderr)
    return 0


def _faults_manifest_section(jobs, entries, interval_ns):
    """The manifest's ``faults`` section: one compact record per scenario.

    Everything recorded here is a product of the seeded simulation, so
    ``repro diff`` treats any divergence as deterministic drift.
    """
    scenarios = []
    for job, (controller, scenario) in zip(jobs, entries):
        params = job.params
        recovery = scenario["recovery"]
        scenarios.append({
            "workload": params["workload"],
            "controller": controller,
            "policy": scenario["policy"],
            "crash_access": params["plan"]["power_loss_at_access"],
            "crash_ns": scenario["crash_ns"],
            "horizon_ns": recovery["horizon_ns"],
            "durable_events": recovery["durable_events"],
            "dropped_events": recovery["dropped_events"],
            "lost_counter_lines": len(recovery["lost_counter_lines"]),
            "broken_references": len(recovery["broken_references"]),
            "recovery_time_ns": recovery["recovery_time_ns"],
            "report": {
                key: scenario["report"][key]
                for key in ("total_lines", "intact", "stale", "lost")
            },
        })
    return {"interval_ns": float(interval_ns), "scenarios": scenarios}


def _run_faults(args: argparse.Namespace) -> int:
    from repro.faults.audit import ConsistencyReport
    from repro.faults.campaign import campaign_specs, vulnerability_table
    from repro.runner import provider

    spec = figures.resolve_experiment(args.figure)
    settings = _settings(args)
    cache = _configure_runner(args)

    if args.controllers:
        controllers = tuple(
            name.strip() for name in args.controllers.split(",") if name.strip()
        )
    else:
        from repro.core.registry import available_controllers

        controllers = tuple(available_controllers())
    policies = tuple(name.strip() for name in args.policies.split(",") if name.strip())
    points = tuple(float(part) for part in args.points.split(",") if part.strip())

    jobs = []
    try:
        for app in settings.applications:
            jobs.extend(
                campaign_specs(
                    workload=app,
                    accesses=settings.accesses,
                    seed=settings.seed,
                    controllers=controllers,
                    policies=policies,
                    points=points,
                    interval_ns=args.interval_ns,
                    cell_faults=args.cell_faults,
                    cell_fault_mode=args.cell_fault_mode,
                    drop_probability=args.drop_probability,
                    experiment=spec.id,
                )
            )
    except ValueError as exc:
        print(f"faults: {exc}", file=sys.stderr)
        return 2
    report = _warm_jobs(args, jobs, cache)
    for failure in report.failures:
        print(f"faults: FAILED {failure.spec.label}: {failure.error}", file=sys.stderr)
    if not report.ok:
        return 1

    entries = []
    for job in jobs:
        scenario = provider.active().get(job)["scenario"]
        # Re-assert the partition invariant on every payload — cached
        # entries included — so a poisoned cache cannot pass silently.
        ConsistencyReport.from_dict(scenario["report"])
        entries.append((job.params["controller"], scenario))

    print(
        f"{spec.id} ({spec.anchor}) — fault campaign on "
        f"{', '.join(settings.applications)}: {len(controllers)} controller(s) x "
        f"{len(policies)} policy(ies) x {len(points)} crash point(s), "
        f"{settings.accesses} accesses, seed {settings.seed}"
    )
    print(vulnerability_table(entries, args.interval_ns).render())

    if args.json:
        import json
        from pathlib import Path

        payload = [
            {"controller": controller, **scenario}
            for controller, scenario in entries
        ]
        Path(args.json).write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.json}", file=sys.stderr)
    if args.manifest:
        path = _write_run_manifest(
            args, [spec.id], settings, report, False,
            faults=_faults_manifest_section(jobs, entries, args.interval_ns),
        )
        print(f"manifest: {path}", file=sys.stderr)
    return 0


def _run_wear(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis.charts import heatmap_csv, render_heatmap
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.runner.jobs import trace_for
    from repro.system.simulator import simulate

    spec = figures.resolve_experiment(args.figure)
    workload = trace_for(args.app, args.accesses, args.seed)

    def run_one(name: str):
        nvm = NvmMainMemory()
        return nvm, simulate(build_controller(name, nvm), workload)

    nvm, report = run_one(args.controller)
    wear = nvm.wear
    config = nvm.config
    print(
        f"{spec.id} ({spec.anchor}) — {args.controller} on {args.app}, "
        f"{args.accesses} accesses, seed {args.seed}"
    )
    summary = wear.summary()
    print(
        f"{summary.total_line_writes} line writes over "
        f"{summary.distinct_lines_written} distinct lines, "
        f"{summary.total_bit_flips} bit flips "
        f"(hottest line: {summary.max_line_writes} writes)\n"
    )

    highest = wear.highest_line_written()
    touched = (highest + 1) if highest is not None else 1
    grid = wear.heatmap_grid(touched, args.rows, args.cols, metric=args.metric)
    print(
        render_heatmap(
            grid,
            title=f"wear heatmap: {args.metric} over lines [0, {touched})",
            cell_label=args.metric,
        )
    )

    print(f"\n{'bank':>6s}{'writes':>10s}{'flips':>12s}{'peak':>8s}  hottest line")
    for bank in wear.bank_wear(config.organization.total_banks):
        hottest = bank.hottest_line if bank.hottest_line is not None else "-"
        print(
            f"{bank.index:6d}{bank.line_writes:10d}{bank.bit_flips:12d}"
            f"{bank.max_line_writes:8d}  {hottest}"
        )

    print(f"\n{'region':>6s}{'lines':>8s}{'writes':>10s}{'flips':>12s}"
          f"{'mean w/line':>12s}{'peak':>8s}")
    for region in wear.region_wear(touched, args.regions):
        print(
            f"{region.index:6d}{region.lines:8d}{region.line_writes:10d}"
            f"{region.bit_flips:12d}{region.mean_writes_per_line:12.2f}"
            f"{region.max_line_writes:8d}"
        )

    def lifetime(tracker, makespan_ns: float) -> float:
        return tracker.projected_lifetime_years(
            total_lines=config.organization.total_lines,
            line_bits=config.line_bits,
            cell_endurance_writes=config.cell_endurance_writes,
            makespan_ns=makespan_ns,
        )

    years = lifetime(wear, report.makespan_ns)
    print(f"\nprojected lifetime ({args.controller}): {years:.3g} years "
          f"(ideal levelling, {config.cell_endurance_writes:g} writes/cell)")
    if args.baseline and args.baseline != "none":
        base_nvm, base_report = run_one(args.baseline)
        base_years = lifetime(base_nvm.wear, base_report.makespan_ns)
        factor = wear.lifetime_factor(base_nvm.wear)
        print(
            f"projected lifetime ({args.baseline}): {base_years:.3g} years — "
            f"{args.controller} extends lifetime {factor:.2f}x "
            f"({base_nvm.wear.summary().total_bit_flips} -> "
            f"{summary.total_bit_flips} flips)"
        )

    if args.csv:
        Path(args.csv).write_text(heatmap_csv(grid), encoding="utf-8")
        print(f"wrote {args.csv}", file=sys.stderr)
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    from repro.obs.diff import (
        diff_figure_dirs,
        diff_manifests,
        diff_stages,
        stage_percentiles,
    )
    from repro.obs.drift import RegressionReport
    from repro.obs.manifest import ManifestError, load_manifest

    if bool(args.trace_a) != bool(args.trace_b):
        print("diff: --trace-a and --trace-b must be given together", file=sys.stderr)
        return 2
    if bool(args.figures_a) != bool(args.figures_b):
        print("diff: --figures-a and --figures-b must be given together", file=sys.stderr)
        return 2
    try:
        manifest_a = load_manifest(args.manifest_a, validate=False)
        manifest_b = load_manifest(args.manifest_b, validate=False)
    except ManifestError as error:
        print(f"diff: {error}", file=sys.stderr)
        return 2

    diff = diff_manifests(manifest_a, manifest_b)
    stage_notes: list[str] = []
    figure_reports: dict[str, RegressionReport] = {}
    figure_notes: list[str] = []
    try:
        if args.trace_a:
            stage_notes = diff_stages(
                stage_percentiles(args.trace_a),
                stage_percentiles(args.trace_b),
                tolerance=args.tolerance,
            )
        if args.figures_a:
            figure_reports, figure_notes = diff_figure_dirs(
                args.figures_a, args.figures_b, tolerance=args.tolerance
            )
    except (OSError, ValueError) as error:
        print(f"diff: {error}", file=sys.stderr)
        return 2
    drift = (
        diff.deterministic_drift
        or bool(stage_notes)
        or bool(figure_notes)
        or any(not report.clean for report in figure_reports.values())
    )

    if args.json:
        import dataclasses
        import json

        manifest_payload = dataclasses.asdict(diff)
        manifest_payload["wall_clock_deltas"] = manifest_payload.pop("info_deltas")
        for delta in manifest_payload["counter_drifts"]:
            del delta["kind"]
        payload = {
            "deterministic_drift": drift,
            "manifest": manifest_payload,
            "stages": stage_notes,
            "figures": {
                "notes": figure_notes,
                "reports": {
                    name: {"clean": report.clean, "summary": report.summary()}
                    for name, report in figure_reports.items()
                },
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1 if drift else 0

    print(f"diff: {args.manifest_a} vs {args.manifest_b}")
    print(diff.render())
    if args.trace_a:
        if stage_notes:
            print(f"stage drift ({len(stage_notes)}):")
            for note in stage_notes:
                print(f"  {note}")
        else:
            print("stages: per-stage sim-clock percentiles match")
    if args.figures_a:
        for note in figure_notes:
            print(f"figures: {note}")
        for name, report in sorted(figure_reports.items()):
            verdict = "clean" if report.clean else "DRIFT"
            print(f"figures: {name}: {verdict} — {report.summary().splitlines()[0]}")
    print(f"diff: {'DRIFT detected' if drift else 'no deterministic drift'}")
    return 1 if drift else 0


def _run_bench(args: argparse.Namespace) -> int:
    from repro.obs import bench

    controllers = (
        [name.strip() for name in args.controllers.split(",") if name.strip()]
        if args.controllers
        else None
    )
    cases = bench.default_suite(
        accesses=args.accesses, seed=args.seed, controllers=controllers
    )
    print(f"bench: {len(cases)} case(s), best of {args.repeats} interleaved repeat(s)")
    results = bench.run_suite(cases, repeats=args.repeats)
    stages = bench.collect_stage_breakdown(
        accesses=args.accesses, seed=args.seed, controllers=controllers
    )
    print(f"{'case':26s}{'best ms':>10s}{'ops':>8s}{'ns/op':>12s}")
    for name, entry in sorted(results.items()):
        print(
            f"{name:26s}{entry['best_s'] * 1000:10.2f}{entry['ops']:8d}"
            f"{entry['per_op_ns']:12.1f}"
        )
    record = bench.build_record(
        results,
        scale={
            "accesses": args.accesses,
            "seed": args.seed,
            "repeats": args.repeats,
            "controllers": controllers if controllers is not None else "all",
        },
        stages=stages,
    )
    path = bench.write_record(record, args.out)
    print(f"wrote {path}", file=sys.stderr)
    exit_code = 0
    if args.check:
        try:
            baseline = bench.load_record(args.check)
        except (OSError, ValueError) as error:
            print(f"bench: cannot load baseline: {error}", file=sys.stderr)
            return 2
        comparison = bench.compare_records(record, baseline, threshold=args.threshold)
        print(comparison.render())
        exit_code |= 0 if comparison.ok else 1
    if args.gate:
        try:
            anchors = bench.discover_anchors(args.gate)
            records = [bench.load_record(anchor) for anchor in anchors]
        except (OSError, ValueError) as error:
            print(f"bench: cannot load anchors: {error}", file=sys.stderr)
            return 2
        if not records:
            print(f"bench: no BENCH_*.json anchors in {args.gate}", file=sys.stderr)
            return 2
        baseline = bench.composite_baseline(records)
        print(
            f"gating against {len(records)} anchor(s) in {args.gate} "
            f"(per-case best-ever baseline)"
        )
        comparison = bench.compare_records(record, baseline, threshold=args.threshold)
        print(comparison.render())
        exit_code |= 0 if comparison.ok else 1
    return exit_code


def _run_watch(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.watch import follow_file, follow_socket

    max_wait = args.max_wait if args.max_wait > 0 else None
    if args.socket:
        target = Path(args.target)
        if target.exists():
            print(f"watch: {target} already exists; refusing to bind", file=sys.stderr)
            return 2
        model = follow_socket(target, interval_s=args.interval, max_wait_s=max_wait)
    else:
        target = Path(args.target)
        if target.is_dir():
            target = target / "events.jsonl"
        if args.once and not target.exists():
            print(f"watch: no event stream at {target}", file=sys.stderr)
            return 2
        model = follow_file(
            target, interval_s=args.interval, once=args.once, max_wait_s=max_wait
        )
    return 1 if model.failed else 0


def _traffic_config(args: argparse.Namespace):
    from repro.workloads.tenants import TenantTrafficConfig

    return TenantTrafficConfig(
        tenants=args.tenants,
        accesses=args.accesses,
        seed=args.seed,
        zipf_s=args.zipf_s,
        content_overlap=args.overlap,
        shared_pool_lines=args.pool_lines,
        lines_per_tenant=args.lines_per_tenant,
        read_fraction=args.read_fraction,
        persistent_fraction=args.persistent_fraction,
    )


def _run_serve(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.events import NULL_EVENTS
    from repro.runner.engine import stderr_progress
    from repro.serve.control import AdmissionPolicy
    from repro.serve.service import ServiceConfig, run_service

    try:
        config = ServiceConfig(
            traffic=_traffic_config(args),
            policy=AdmissionPolicy(max_tenant_slots=args.max_slots, tenant_quota=args.quota),
            shards=args.shards,
            controller=args.controller,
        )
    except ValueError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 2
    cache = _configure_runner(args)
    events = _event_bus(args.events) if args.events else NULL_EVENTS
    progress = stderr_progress if args.progress else None
    try:
        outcome = run_service(
            config,
            parallel=args.parallel,
            cache=cache,
            job_timeout_s=args.job_timeout,
            events=events,
            progress=progress,
        )
    except RuntimeError as error:
        print(f"serve: {error}", file=sys.stderr)
        return 1
    finally:
        if events is not NULL_EVENTS:
            events.close()
    report = outcome.report
    print(report.render())
    print(outcome.run.cache_stats_line(), file=sys.stderr)
    if args.json_out:
        blob = json.dumps(report.to_dict(), sort_keys=True, indent=2)
        Path(args.json_out).write_text(blob + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    if args.tables:
        tables = Path(args.tables)
        tables.mkdir(parents=True, exist_ok=True)
        (tables / "wear_balance.csv").write_text(report.wear_table_csv())
        (tables / "dedup_ratio.csv").write_text(report.dedup_table_csv())
        print(f"wrote {tables}/wear_balance.csv and {tables}/dedup_ratio.csv",
              file=sys.stderr)
    return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.serve.control import AdmissionPolicy
    from repro.serve.loadgen import build_load_plan

    try:
        policy = AdmissionPolicy(max_tenant_slots=args.max_slots, tenant_quota=args.quota)
        plan = build_load_plan(_traffic_config(args), policy, args.shards)
    except ValueError as error:
        print(f"loadgen: {error}", file=sys.stderr)
        return 2
    print(plan.render())
    if args.json_out:
        blob = json.dumps(plan.to_dict(), sort_keys=True, indent=2)
        Path(args.json_out).write_text(blob + "\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    return 0


def _run_ledger(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs.ledger import Ledger, LedgerError

    path = Path(args.ledger_path)
    if path.exists():
        try:
            ledger = Ledger.load(path)
        except LedgerError as error:
            print(f"ledger: {error}", file=sys.stderr)
            return 2
    else:
        ledger = Ledger()

    if args.action == "add":
        if not args.records:
            print("ledger: add needs at least one record file", file=sys.stderr)
            return 2
        added = 0
        for record_path in args.records:
            try:
                payload = json.loads(Path(record_path).read_text(encoding="utf-8"))
                if ledger.add_record(payload, source=str(record_path)):
                    added += 1
            except (OSError, json.JSONDecodeError, LedgerError) as error:
                print(f"ledger: {record_path}: {error}", file=sys.stderr)
                return 2
        ledger.dump(path)
        duplicates = len(args.records) - added
        print(
            f"ledger: indexed {added} new record(s)"
            + (f", {duplicates} already present" if duplicates else "")
            + f" -> {path} ({len(ledger)} total)"
        )
        return 0

    entries = ledger.entries()
    if args.json:
        print(json.dumps(ledger.to_dict(), indent=2, sort_keys=True))
        return 0
    print(f"ledger: {path} — {len(entries)} entr(y/ies)")
    for entry in entries:
        sha = (entry.git_sha or "nogit")[:12]
        if entry.record_kind == "bench":
            detail = f"{len(entry.summary.get('results', {}))} case(s)"
        else:
            jobs = entry.summary.get("jobs", {})
            detail = f"{jobs.get('total', 0)} job(s), {entry.summary.get('failures', 0)} failed"
        print(f"  {entry.entry_id}  {entry.record_kind:8s} {sha:12s} {detail}"
              + (f"  [{entry.source}]" if entry.source else ""))
    return 0


def _run_trend(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.obs import bench
    from repro.obs.ledger import Ledger, LedgerError, compute_trend, ledger_from_records

    source = Path(args.source)
    try:
        if source.is_dir():
            anchors = bench.discover_anchors(source)
            ledger = ledger_from_records(
                (bench.load_record(anchor), str(anchor)) for anchor in anchors
            )
        else:
            ledger = Ledger.load(source)
    except (OSError, ValueError, LedgerError) as error:
        print(f"trend: {error}", file=sys.stderr)
        return 2
    report = compute_trend(ledger.entries(record_kind="bench"), threshold=args.threshold)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _run_compare(args: argparse.Namespace) -> int:
    _configure_runner(args)
    profile = profile_by_name(args.app)
    settings = ex.ExperimentSettings(
        accesses=args.accesses, seed=args.seed, applications=(profile.name,)
    )
    result = ex.run_app_comparison(profile, settings)
    speedups = result.speedups
    print(f"application: {profile.name}  ({profile.suite}, {profile.threads} thread(s))")
    print(f"trace: {args.accesses} accesses, seed {args.seed}\n")
    rows = [
        ("mean write latency (ns)",
         result.baseline.mean_write_latency_ns, result.dewrite.mean_write_latency_ns),
        ("mean read latency (ns)",
         result.baseline.mean_read_latency_ns, result.dewrite.mean_read_latency_ns),
        ("IPC (x1000)", result.baseline.ipc * 1000, result.dewrite.ipc * 1000),
        ("energy (uJ)", result.baseline.energy_nj / 1000, result.dewrite.energy_nj / 1000),
        ("NVM bit flips",
         float(result.baseline.wear.total_bit_flips), float(result.dewrite.wear.total_bit_flips)),
    ]
    print(f"{'metric':26s}{'baseline':>12s}{'dewrite':>12s}")
    for name, base, ours in rows:
        print(f"{name:26s}{base:12,.1f}{ours:12,.1f}")
    print(
        f"\nwrite reduction {result.dewrite.write_reduction:.0%} | "
        f"write speedup {speedups['write_speedup']:.2f}x | "
        f"read speedup {speedups['read_speedup']:.2f}x | "
        f"IPC {speedups['ipc_ratio']:.2f}x | "
        f"energy {speedups['energy_ratio']:.2f}x"
    )
    return 0


def _run_figure(args: argparse.Namespace) -> int:
    spec = figures.experiment(args.id)
    settings = _settings(args)
    cache = _configure_runner(args)
    if args.parallel > 1:
        _warm_jobs(args, spec.jobs(settings), cache)
    table = spec.render(settings)
    print(table.render())
    if args.chart:
        from repro.analysis.charts import render_bar_chart

        reference = 1.0 if ("speedup" in args.chart or "ratio" in args.chart) else None
        print()
        print(render_bar_chart(table, args.chart, reference=reference))
    if args.json:
        from repro.analysis.export import dump_json, table_to_dict

        dump_json(table_to_dict(table), args.json)
        print(f"\nwrote {args.json}")
    return 0


def _run_regress(args: argparse.Namespace) -> int:
    from repro.obs.drift import compare_tables, load_table

    try:
        report = compare_tables(
            load_table(args.reference),
            load_table(args.current),
            relative_tolerance=args.tolerance,
        )
    except (OSError, ValueError) as error:
        print(f"regress: {error}", file=sys.stderr)
        return 2
    print(report.summary())
    return 0 if report.clean else 1


def _run_check(args: argparse.Namespace) -> int:
    do_lint = args.lint or not args.invariants
    do_invariants = args.invariants or not args.lint
    exit_code = 0
    if do_lint:
        exit_code |= _run_check_lint(args)
    if do_invariants:
        exit_code |= _run_check_invariants(args.accesses, args.seed)
    return exit_code


def _run_check_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    import repro
    from repro.check.baseline import Baseline, discover_baseline
    from repro.check.lint import lint_paths
    from repro.check.output import render_json, render_sarif

    targets = args.paths if args.paths else [str(Path(repro.__file__).parent)]

    if args.write_baseline:
        report = lint_paths(targets)
        Baseline.from_violations(report.violations).dump(args.write_baseline)
        print(
            f"simlint: wrote baseline with {len(report.violations)} finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    baseline = None
    if args.baseline:
        baseline = Baseline.load(args.baseline)
    elif not args.no_baseline:
        found = discover_baseline(Path(targets[0]))
        if found is not None:
            baseline = Baseline.load(found)

    report = lint_paths(targets, baseline=baseline)
    if args.sarif:
        Path(args.sarif).write_text(render_sarif(report) + "\n", encoding="utf-8")
    if args.json_output:
        print(render_json(report))
    else:
        print(report.render())
    return 0 if report.clean else 1


def _run_check_invariants(accesses: int, seed: int) -> int:
    from repro.check.invariants import CheckedController, InvariantViolation
    from repro.core.registry import build_controller
    from repro.nvm.config import NvmConfig, NvmOrganization
    from repro.nvm.memory import NvmMainMemory
    from repro.runner.jobs import WORST_CASE_WORKLOAD, trace_for
    from repro.system.simulator import simulate

    line = 256

    def make_nvm() -> NvmMainMemory:
        return NvmMainMemory(
            NvmConfig(organization=NvmOrganization(capacity_bytes=64 * 1024 * line))
        )

    runs = [
        ("dewrite/mcf", lambda: build_controller("dewrite", make_nvm()),
         trace_for("mcf", accesses, seed)),
        ("dewrite-direct/lbm", lambda: build_controller("direct", make_nvm()),
         trace_for("lbm", accesses, seed)),
        ("secure-nvm/sjeng", lambda: build_controller("secure-nvm", make_nvm()),
         trace_for("sjeng", accesses, seed)),
        ("dewrite/worstcase", lambda: build_controller("dewrite", make_nvm()),
         trace_for(WORST_CASE_WORKLOAD, accesses, seed)),
        ("silent-shredder/sjeng", lambda: build_controller("silent-shredder", make_nvm()),
         trace_for("sjeng", accesses, seed)),
        # A small hot set, so cold-line encryption and cold reads run too.
        ("i-nvmm/mcf", lambda: build_controller("i-nvmm", make_nvm(), hot_set_lines=64),
         trace_for("mcf", accesses, seed)),
        ("out-of-line/lbm", lambda: build_controller("out-of-line", make_nvm()),
         trace_for("lbm", accesses, seed)),
        # canneal runs 4 threads, so every kernel's stream merge (and the
        # out-of-line scan slicing) runs under the checker.
        ("dewrite/canneal", lambda: build_controller("dewrite", make_nvm()),
         trace_for("canneal", accesses, seed)),
        ("secure-nvm/canneal", lambda: build_controller("secure-nvm", make_nvm()),
         trace_for("canneal", accesses, seed)),
        ("i-nvmm/canneal", lambda: build_controller("i-nvmm", make_nvm(), hot_set_lines=64),
         trace_for("canneal", accesses, seed)),
        ("silent-shredder/canneal", lambda: build_controller("silent-shredder", make_nvm()),
         trace_for("canneal", accesses, seed)),
        ("out-of-line/canneal", lambda: build_controller("out-of-line", make_nvm()),
         trace_for("canneal", accesses, seed)),
        ("parallel/sjeng", lambda: build_controller("parallel", make_nvm()),
         trace_for("sjeng", accesses, seed)),
        # The metadata persistence arms and a tiny metadata cache, so the
        # persistence gate and eviction writebacks run under the checker.
        ("dewrite[write-through]/sjeng",
         lambda: build_controller(
             "dewrite", make_nvm(), persistence={"policy": "write_through"}),
         trace_for("sjeng", accesses, seed)),
        ("dewrite[periodic]/sjeng",
         lambda: build_controller(
             "dewrite", make_nvm(),
             persistence={"policy": "periodic_writeback", "writeback_interval_ns": 5_000.0}),
         trace_for("sjeng", accesses, seed)),
        ("dewrite[tiny-cache]/mcf",
         lambda: build_controller(
             "dewrite", make_nvm(),
             metadata_cache={
                 "hash_cache_bytes": 2_048,
                 "address_map_cache_bytes": 4_096,
                 "inverted_hash_cache_bytes": 4_096,
                 "fsm_cache_bytes": 256,
             }),
         trace_for("mcf", accesses, seed)),
    ]
    failures = 0
    for name, factory, trace in runs:
        checked = CheckedController(factory())
        try:
            simulate(checked, trace)
            checked.close(now_ns=10.0**12)
        except InvariantViolation as violation:
            failures += 1
            print(f"invariants: FAIL {name}: {violation}")
            continue
        print(
            f"invariants: ok {name} ({checked.operations} ops, "
            f"{checked.deep_checks} deep sweeps)"
        )
    if failures:
        print(f"invariants: {failures} run(s) violated conservation laws")
        return 1
    print(f"invariants: all {len(runs)} runs clean")
    return 0


def _run_list() -> int:
    from repro.core.registry import available_controllers

    print("figures:")
    for spec in figures.all_experiments():
        print(f"  {spec.id:8s} {spec.description}")
    print("\napplications:")
    for profile in ALL_PROFILES:
        print(
            f"  {profile.name:14s} {profile.suite:6s} dup={profile.dup_ratio:.0%} "
            f"zero={profile.zero_line_fraction:.0%}"
        )
    print("\ncontrollers:")
    for name, description in available_controllers().items():
        print(f"  {name:18s} {description}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_run(args)
        if args.command == "trace":
            return _run_trace(args)
        if args.command == "profile":
            return _run_profile(args)
        if args.command == "stats":
            return _run_stats(args)
        if args.command == "timeline":
            return _run_timeline(args)
        if args.command == "faults":
            return _run_faults(args)
        if args.command == "wear":
            return _run_wear(args)
        if args.command == "diff":
            return _run_diff(args)
        if args.command == "bench":
            return _run_bench(args)
        if args.command == "watch":
            return _run_watch(args)
        if args.command == "serve":
            return _run_serve(args)
        if args.command == "loadgen":
            return _run_loadgen(args)
        if args.command == "ledger":
            return _run_ledger(args)
        if args.command == "trend":
            return _run_trend(args)
        if args.command == "compare":
            return _run_compare(args)
        if args.command == "figure":
            return _run_figure(args)
        if args.command == "regress":
            return _run_regress(args)
        if args.command == "check":
            return _run_check(args)
        return _run_list()
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0


if __name__ == "__main__":
    sys.exit(main())
