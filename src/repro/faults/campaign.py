"""Fault-injection campaigns over the parallel experiment engine.

A campaign fans a grid of crash scenarios — (controller × persistence
policy × crash point) — into content-keyed ``"crash-recovery"`` jobs, so
the :mod:`repro.runner` engine gives every point its own cache entry and
bit-identical results serial or parallel (the fault plan's seed travels
inside the spec, like every other input).

Crash points are given as *fractions of the trace*: a point at 0.5 pulls
the plug before the access at the middle of the trace, which keeps a grid
meaningful across workloads of different lengths and (unlike sim-time
points) independent of each controller's own latencies — every controller
crashes at the same logical position, so the comparison isolates the
metadata durability story.

Persistence-policy plumbing differs by family, deliberately:

- DeWrite-family controllers (``dewrite``/``direct``/``parallel``) get the
  policy injected into their config, so the *runtime* flush traffic
  (write-through metadata writes, periodic flush bursts) matches the crash
  model's durability assumption;
- the secure baselines (and ``traditional-dedup``, whose builder fixes its
  config) carry no persistence knob — for them the policy is purely the
  crash-model assumption, which the vulnerability table footnotes.
"""

from __future__ import annotations

from typing import Any

from repro.analysis.reporting import Table
from repro.core.persistence import MetadataPersistenceConfig, MetadataPersistencePolicy
from repro.faults.crash import CrashRun
from repro.faults.plan import DEFAULT_POINTS, DEFAULT_POLICIES, FaultPlan
from repro.runner.jobs import JobSpec, _core_params, canonical_json
from repro.system.cpu import CoreModelConfig

#: Controllers whose configs accept a persistence policy (runtime flush
#: traffic then matches the crash model; see the module docstring).
PERSISTENCE_AWARE_CONTROLLERS = ("dewrite", "direct", "parallel")


def crash_recovery_spec(
    *,
    workload: str,
    controller: str,
    accesses: int,
    seed: int,
    plan: FaultPlan,
    policy: str,
    interval_ns: float,
    opts: dict[str, Any] | None = None,
    core: CoreModelConfig | None = None,
    experiment: str = "",
) -> JobSpec:
    """Spec for one crash/recovery/audit scenario."""
    # Validate eagerly so a bad grid fails at spec-build time, not in a
    # worker process.
    MetadataPersistenceConfig(
        policy=MetadataPersistencePolicy(policy), writeback_interval_ns=interval_ns
    )
    params = {
        "workload": workload,
        "controller": controller,
        "opts": opts or {},
        "accesses": accesses,
        "seed": seed,
        "core": _core_params(core),
        "plan": plan.to_dict(),
        "policy": policy,
        "interval_ns": float(interval_ns),
    }
    return JobSpec("crash-recovery", canonical_json(params), experiment)


#: The one paused crash run of this process, keyed by its spec params
#: with the crash ordinal blanked (see :func:`run_crash_recovery_job`).
_paused: tuple[str, CrashRun] | None = None


def release_paused_run() -> None:
    """Drop this process's paused crash run (the next job starts fresh)."""
    global _paused
    _paused = None


def run_crash_recovery_job(params: dict[str, Any]) -> dict[str, Any]:
    """Job-kind executor: one simulate → crash → recover → audit.

    The siblings of a campaign grid differ only in the crash ordinal and
    are planned in ascending order, so the process keeps its last crash
    run paused: a sibling whose ordinal is at or past the run's position
    resumes it instead of replaying the prefix from access 0.  Any other
    job (a different scenario, a lower ordinal, a sim-time trigger)
    releases the paused run first and starts fresh.  A resumed run yields
    the same payload as a fresh one, so serial, parallel and cached runs
    stay byte-identical.
    """
    global _paused
    from repro.core.registry import build_controller
    from repro.nvm.memory import NvmMainMemory
    from repro.runner.jobs import trace_for

    plan = FaultPlan.from_dict(params["plan"])
    persistence = MetadataPersistenceConfig(
        policy=MetadataPersistencePolicy(params["policy"]),
        writeback_interval_ns=float(params["interval_ns"]),
    )
    key = canonical_json({**params, "plan": {**params["plan"], "power_loss_at_access": None}})
    paused, _paused = _paused, None
    if paused is not None and paused[0] == key and paused[1].reaches(plan):
        run = paused[1]
    else:
        # Release the paused run before building the fresh one, so two
        # controllers are never alive at once.
        paused = None
        core = CoreModelConfig(**params["core"])
        trace = trace_for(params["workload"], int(params["accesses"]), int(params["seed"]))
        controller = build_controller(params["controller"], NvmMainMemory(), **params["opts"])
        run = CrashRun(controller, trace, plan, core)
    result = run.crash(plan, persistence)
    if plan.power_loss_ns is None:
        _paused = (key, run)
    return {"scenario": result.to_dict(), "simulations": 1}


def campaign_specs(
    *,
    workload: str,
    accesses: int,
    seed: int,
    controllers: tuple[str, ...],
    policies: tuple[str, ...] = DEFAULT_POLICIES,
    points: tuple[float, ...] = DEFAULT_POINTS,
    interval_ns: float = 100_000.0,
    cell_faults: int = 0,
    cell_fault_mode: str = "bit_flip",
    drop_probability: float = 0.0,
    core: CoreModelConfig | None = None,
    experiment: str = "faults",
) -> list[JobSpec]:
    """The campaign grid: one job per (controller × policy × crash point)."""
    for point in points:
        if not 0.0 < point <= 1.0:
            raise ValueError(f"crash points are trace fractions in (0, 1], got {point}")
    specs: list[JobSpec] = []
    for controller in controllers:
        for policy in policies:
            opts: dict[str, Any] = {}
            if controller in PERSISTENCE_AWARE_CONTROLLERS:
                opts["persistence"] = {
                    "policy": policy,
                    "writeback_interval_ns": float(interval_ns),
                }
            for point in points:
                plan = FaultPlan(
                    seed=seed,
                    power_loss_at_access=max(1, int(accesses * point)),
                    cell_faults=cell_faults,
                    cell_fault_mode=cell_fault_mode,
                    flush_drop_probability=drop_probability,
                )
                specs.append(
                    crash_recovery_spec(
                        workload=workload,
                        controller=controller,
                        accesses=accesses,
                        seed=seed,
                        plan=plan,
                        policy=policy,
                        interval_ns=interval_ns,
                        opts=opts,
                        core=core,
                        experiment=experiment,
                    )
                )
    return specs


def vulnerability_table(
    entries: list[tuple[str, dict[str, Any]]], interval_ns: float
) -> Table:
    """Aggregate scenario payloads into the §V vulnerability-window table.

    ``entries`` pairs each job's controller name with its ``"scenario"``
    payload dict; rows aggregate over crash points per (controller,
    policy).
    """
    grouped: dict[tuple[str, str], dict[str, Any]] = {}
    for controller, scenario in entries:
        policy = scenario["policy"]
        bucket = grouped.setdefault(
            (controller, policy),
            {"points": 0, "total": 0, "intact": 0, "stale": 0, "lost": 0,
             "lost_counters": 0, "recovery_ns": 0.0},
        )
        report = scenario["report"]
        bucket["points"] += 1
        bucket["total"] += report["total_lines"]
        bucket["intact"] += report["intact"]
        bucket["stale"] += report["stale"]
        bucket["lost"] += report["lost"]
        bucket["lost_counters"] += len(scenario["recovery"]["lost_counter_lines"])
        bucket["recovery_ns"] += scenario["recovery"]["recovery_time_ns"]

    table = Table(
        title="Crash vulnerability windows (per persistence policy)",
        headers=[
            "controller", "policy", "window_ns", "points",
            "lines", "intact", "stale", "lost", "lost_ctrs", "recovery_ns",
        ],
    )
    policy_order = {name: i for i, name in enumerate(DEFAULT_POLICIES)}
    for (controller, policy), bucket in sorted(
        grouped.items(), key=lambda item: (item[0][0], policy_order.get(item[0][1], 99))
    ):
        window = MetadataPersistenceConfig(
            policy=MetadataPersistencePolicy(policy), writeback_interval_ns=interval_ns
        ).vulnerability_window_ns()
        table.add_row(
            controller,
            policy,
            window,
            bucket["points"],
            bucket["total"],
            bucket["intact"],
            bucket["stale"],
            bucket["lost"],
            bucket["lost_counters"],
            bucket["recovery_ns"] / bucket["points"],
        )
    table.add_note(
        "window_ns is the worst-case age of metadata a crash can lose; counts "
        "aggregate over all crash points of the grid."
    )
    table.add_note(
        "policies are config-plumbed for dewrite/direct/parallel and a pure "
        "crash-model assumption for the secure baselines."
    )
    return table
