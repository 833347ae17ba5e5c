"""Tests of the end-to-end benchmark harness.

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import child  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TINY = ["--scale", "0.02", "--repeats", "1"]


class FakeClock:
    """A clock the traced functions advance explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_from_nested_spans():
    clock = FakeClock()
    recorder = layertrace.Recorder(clock=clock)

    def leaf():
        clock.advance(2.0)

    leaf = recorder.wrap(leaf, "hashes", "m.leaf")

    def service_batch():
        clock.advance(1.0)
        leaf()
        clock.advance(3.0)
        leaf()

    service_batch = recorder.wrap(service_batch, "core.dewrite", "m.batch", coarse=True)

    def simulate():
        clock.advance(0.5)
        service_batch()

    simulate = recorder.wrap(simulate, "system", "m.simulate", coarse=True)
    simulate()

    assert recorder.functions["m.leaf"] == ["hashes", 2, 4.0, 4.0]
    assert recorder.functions["m.batch"] == ["core.dewrite", 1, 8.0, 4.0]
    # The outermost call is the dispatch root: its self time is unattributed.
    assert recorder.functions["m.simulate"] == ["system", 1, 8.5, 0.0]
    assert recorder.root_s == 8.5 and recorder.root_self_s == 0.5
    totals = layertrace.layer_totals([recorder.snapshot()])
    assert totals["hashes"] == {"self_s": 4.0, "calls": 2}
    assert sum(t["self_s"] for t in totals.values()) + recorder.root_self_s == recorder.root_s

    (batch_span, simulate_span) = recorder.spans
    assert batch_span[1] == simulate_span[0]  # parent link
    assert batch_span[2:6] == ("service_batch", "core.dewrite", 0.5, 8.5)
    assert layertrace.top_level_batches(recorder.spans) == [8.0]


def test_pool_wait_is_kept_out_of_the_layers():
    clock = FakeClock()
    recorder = layertrace.Recorder(clock=clock)

    def wait():
        clock.advance(5.0)

    wait = recorder.wrap_wait(wait)

    def run_jobs():
        clock.advance(1.0)
        wait()

    run_jobs = recorder.wrap(run_jobs, "runner", "m.run_jobs", coarse=True)
    run_jobs()

    assert recorder.pool_wait_s == 5.0
    assert recorder.root_s == 6.0 and recorder.root_self_s == 1.0
    assert recorder.functions["m.run_jobs"][3] == 0.0

    # In a forked worker the outermost call is the job and keeps its self time.
    recorder.pid += 1
    run_jobs()
    assert recorder.functions["m.run_jobs"][3] == 1.0 and recorder.root_self_s == 1.0


def test_nested_service_batch_counts_once():
    spans = [
        (1, None, "simulate", "system", 0.0, 10.0, "j"),
        (2, 1, "service_batch", "core.dewrite", 0.0, 4.0, "j"),
        (3, 2, "service_batch", "core.interface", 0.5, 3.5, "j"),
        (4, 1, "service_batch", "core.dewrite", 4.0, 6.0, "j"),
    ]
    assert layertrace.top_level_batches(spans) == [4.0, 2.0]


@pytest.mark.parametrize(
    ("count", "rank"),
    [(0, 50.0), (19, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (999, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9), (100_000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, rank):
    samples = [float(i) for i in range(count)]
    got_rank, value = layertrace.tail_percentile(samples)
    assert got_rank == rank
    if count:
        assert sum(1 for s in samples if s > value) >= 10 or count < 20
        assert value == layertrace.percentile(samples, rank)


def test_metric_names_units_and_benchmark_json_agree():
    spec = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    declared_layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared_e2e == run.END_TO_END
    assert declared_layer == run.per_layer_units()
    for name, (unit, _better) in {**declared_e2e, **declared_layer}.items():
        assert NAME.fullmatch(name) and len(name) <= 64, name
        assert UNIT.fullmatch(unit), unit
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in cases.WORKLOADS.values()]


def test_host_pace_restores_the_cpu_affinity():
    cpus = os.sched_getaffinity(0)
    for every_cpu in (False, True):
        assert 0.0 < child.host_pace(every_cpu, samples=2) < 1.0
        assert os.sched_getaffinity(0) == cpus


def _last_json_line(captured: str) -> dict:
    return json.loads(captured.strip().splitlines()[-1])


def test_every_workload_traced_matches_untraced(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    out = tmp_path / "result.json"
    assert run.main([*TINY, "--out", str(out)]) == 0
    result = _last_json_line(capsys.readouterr().out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    records = json.loads(out.read_text())["workloads"]
    assert list(records) == list(cases.WORKLOADS)
    for name, record in records.items():
        # Each run compares its digests and fallback totals with the first
        # untraced run; a traced run that changed either fails an operation.
        assert record["operations"]["failed"] == 0, record["failures"]
        assert set(record["end_to_end"]) == {*run.END_TO_END, "failed_frac"}
        assert set(record["per_layer"]) == set(run.per_layer_units())
        chrome = json.loads((tmp_path / f"trace-{name}.json").read_text())
        spans = [e for e in chrome["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        assert any(e["name"] == "execute_job" for e in spans)

    def fallback(name):
        return records[name]["per_layer"]["core.interface.fallback_frac"]["value"]

    assert fallback("parsec-4stream") == 1.0
    for name in ("spec-dedup-heavy", "spec-dedup-light", "worst-case-nodup"):
        assert fallback(name) == 0.0
    assert records["serve-8shard"]["traced"]["workers"], "no pool worker records merged"


def test_doctored_golden_fails_an_operation(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path / "golden")
    argv = ["--workload", "spec-dedup-heavy", *TINY, "--trace", "0",
            "--out", str(tmp_path / "result.json")]
    assert run.main([*argv, "--write-golden"]) == 0
    golden_path = tmp_path / "golden" / "spec-dedup-heavy-seed1.json"
    assert run.main(argv) == 0
    capsys.readouterr()

    golden = json.loads(golden_path.read_text())
    victim = sorted(golden["digests"])[0]
    golden["digests"][victim] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    assert run.main(argv) == 1
    result = _last_json_line(capsys.readouterr().out)
    assert not result["correct"] and result["failed"] == 1
    record = json.loads((tmp_path / "result.json").read_text())["workloads"]["spec-dedup-heavy"]
    assert record["golden"] == "mismatch"
    assert any(victim in failure and "golden" in failure for failure in record["failures"])

    # Regenerating over the doctored golden checks the runs only against
    # each other, so it replaces the file and the next run passes again.
    assert run.main([*argv, "--write-golden"]) == 0
    assert json.loads(golden_path.read_text())["digests"][victim] != "0" * 64
    assert run.main(argv) == 0


def test_golden_for_other_params_fails_at_full_scale(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path / "golden")
    # A small full-scale workload, so --scale 1 stays quick.
    workload = cases.WORKLOADS["spec-dedup-heavy"]
    small = dataclasses.replace(workload, params={**workload.params, "accesses": 1_200})
    monkeypatch.setitem(cases.WORKLOADS, "spec-dedup-heavy", small)
    argv = ["--workload", "spec-dedup-heavy", "--repeats", "1", "--trace", "0",
            "--out", str(tmp_path / "result.json")]
    assert run.main([*argv, "--write-golden"]) == 0
    golden_path = tmp_path / "golden" / "spec-dedup-heavy-seed1.json"
    golden = json.loads(golden_path.read_text())
    golden["params"]["accesses"] = 1_000
    golden_path.write_text(json.dumps(golden))
    capsys.readouterr()

    assert run.main(argv) == 1
    result = _last_json_line(capsys.readouterr().out)
    assert result["failed"] == result["attempted"] > 0
    record = json.loads((tmp_path / "result.json").read_text())["workloads"]["spec-dedup-heavy"]
    assert record["golden"] == "mismatch"
    assert all("recorded for params" in failure for failure in record["failures"])

    # Off full scale the golden does not apply.
    assert run.main([*argv, "--scale", "0.5"]) == 0
    record = json.loads((tmp_path / "result.json").read_text())["workloads"]["spec-dedup-heavy"]
    assert record["golden"] == "unchecked"


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "spec-dedup-heavy"]) == 2
    assert capsys.readouterr().out == ""
