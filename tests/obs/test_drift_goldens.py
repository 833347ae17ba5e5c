"""Golden CLI outputs of every drift verb: ``diff``, ``regress``, the bench
gate render and ``trend``.

The inputs under ``fixtures/drift/`` carry drift in every section the
verbs compare (counters, timeline windows, fault scenarios, stage
sections, trace percentiles, figure tables, bench cases), and the
expected outputs next to them are compared byte for byte.  ``trend.txt``
and ``trend.json`` run over the committed anchors in
``benchmarks/results``, so committing a new anchor means rewriting them:
``PYTHONPATH=src python -m tests.obs.test_drift_goldens`` rewrites every
golden from the current tree.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.bench import compare_records

FIXTURES = Path(__file__).parent / "fixtures" / "drift"
ANCHORS = Path(__file__).parents[2] / "benchmarks" / "results"

DIFF_ARGS = [
    "diff", "manifest_a.json", "manifest_b.json",
    "--trace-a", "trace_a.jsonl", "--trace-b", "trace_b.jsonl",
    "--figures-a", "figures_a", "--figures-b", "figures_b",
]

#: golden file -> (CLI arguments, expected exit code); run inside FIXTURES.
CLI_CASES = {
    "diff.txt": (DIFF_ARGS, 1),
    "diff.json": ([*DIFF_ARGS, "--json"], 1),
    "regress.txt": (["regress", "table_ref.json", "table_cur.json"], 1),
    "trend.txt": (["trend", str(ANCHORS)], 0),
    "trend.json": (["trend", str(ANCHORS), "--json"], 0),
    "trend_steps.txt": (["trend", "anchors"], 1),
}


def run_cli(args: list[str], capsys) -> tuple[int, str]:
    capsys.readouterr()
    code = main(args)
    return code, capsys.readouterr().out


def bench_gate_render() -> str:
    anchors = FIXTURES / "anchors"
    current = json.loads((anchors / "BENCH_888888888888.json").read_text(encoding="utf-8"))
    baseline = json.loads((anchors / "BENCH_999999999999.json").read_text(encoding="utf-8"))
    return compare_records(current, baseline).render() + "\n"


def golden(name: str) -> str:
    return (FIXTURES / "golden" / name).read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, capsys, monkeypatch):
    args, expected_code = CLI_CASES[name]
    monkeypatch.chdir(FIXTURES)
    code, out = run_cli(args, capsys)
    assert out == golden(name)
    assert code == expected_code


def test_bench_gate_render_matches_golden():
    assert bench_gate_render() == golden("bench_gate.txt")


if __name__ == "__main__":
    for name, (args, _) in CLI_CASES.items():
        os.chdir(FIXTURES)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            main(args)
        (FIXTURES / "golden" / name).write_text(out.getvalue(), encoding="utf-8")
    (FIXTURES / "golden" / "bench_gate.txt").write_text(bench_gate_render(), encoding="utf-8")
