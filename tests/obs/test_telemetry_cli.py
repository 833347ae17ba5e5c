"""The telemetry CLI surface: run --events, watch, ledger, trend, --chrome."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.events import read_events, validate_event
from repro.obs.metrics import reset_registry

REPO = Path(__file__).resolve().parents[2]
ANCHORS = REPO / "benchmarks" / "results"
TRACE_FIXTURE = Path(__file__).parent / "fixtures" / "trace_sample.jsonl"


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    monkeypatch.chdir(tmp_path)
    reset_registry()
    yield
    from repro.runner import provider

    provider.reset()
    reset_registry()


class TestRunWithEvents:
    RUN = ["run", "fig12", "--apps", "lbm", "--accesses", "400", "--no-cache"]

    def test_run_streams_a_valid_event_file(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        assert main([*self.RUN, "--events", str(stream)]) == 0
        err = capsys.readouterr().err
        assert f"-> {stream}" in err
        assert "dropped" in err
        records = list(read_events(stream))
        for record in records:
            assert validate_event(record) == [], record
        names = [record["event"] for record in records]
        assert names[0] == "run_started"
        assert names[-1] == "run_finished"
        assert "planned" in names and "started" in names and "finished" in names

    def test_parallel_run_streams_and_watch_replays_it(self, tmp_path, capsys):
        # The acceptance path: a parallel figure run with a live sink,
        # then `repro watch` rendering its progress from the stream.
        stream = tmp_path / "events.jsonl"
        assert main([*self.RUN, "--parallel", "2", "--events", str(stream)]) == 0
        capsys.readouterr()
        assert main(["watch", str(stream), "--once"]) == 0
        out = capsys.readouterr().out
        assert "repro watch" in out
        assert "FINISHED" in out
        assert "2/2 done" in out

    def test_events_counters_reach_manifest_and_stats(self, tmp_path, capsys):
        stream = tmp_path / "events.jsonl"
        manifest = tmp_path / "m.json"
        assert main(
            [*self.RUN, "--events", str(stream), "--manifest", str(manifest)]
        ) == 0
        payload = json.loads(manifest.read_text())
        assert payload["metrics"]["events.emitted"]["value"] > 0
        capsys.readouterr()
        assert main(["stats", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "live telemetry stream" in out


class TestWatchVerb:
    def test_watch_directory_resolves_events_jsonl(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        stream = run_dir / "events.jsonl"
        assert main(
            ["run", "fig12", "--apps", "lbm", "--accesses", "300", "--no-cache",
             "--events", str(stream)]
        ) == 0
        capsys.readouterr()
        assert main(["watch", str(run_dir), "--once"]) == 0
        assert "done" in capsys.readouterr().out

    def test_watch_missing_stream_exits_2(self, tmp_path, capsys):
        assert main(["watch", str(tmp_path / "absent.jsonl"), "--once"]) == 2
        assert "no event stream" in capsys.readouterr().err

    def test_watch_socket_refuses_existing_path(self, tmp_path, capsys):
        existing = tmp_path / "events.sock"
        existing.write_text("")
        assert main(["watch", str(existing), "--socket"]) == 2
        assert "refusing to bind" in capsys.readouterr().err

    def test_watch_reports_failed_runs_with_exit_1(self, tmp_path):
        stream = tmp_path / "events.jsonl"
        record = {
            "schema": 1, "kind": "repro-event", "event": "finished", "seq": 0,
            "wall_unix_s": 1.0, "key": "k", "label": "l", "status": "failed",
            "compute_s": 0.1, "queue_s": 0.0, "attempts": 1,
        }
        stream.write_text(json.dumps(record) + "\n")
        assert main(["watch", str(stream), "--once"]) == 1


class TestChromeExport:
    def test_from_jsonl_conversion_writes_trace_events(self, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(
            ["trace", "--from-jsonl", str(TRACE_FIXTURE), "--chrome", str(out)]
        ) == 0
        assert f"wrote Chrome trace to {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["displayTimeUnit"] == "ns"
        assert any(e["ph"] == "X" for e in payload["traceEvents"])

    def test_from_jsonl_requires_chrome_out(self, capsys):
        assert main(["trace", "--from-jsonl", str(TRACE_FIXTURE)]) == 2
        assert "--chrome" in capsys.readouterr().err

    def test_missing_figure_without_from_jsonl_exits_2(self, capsys):
        assert main(["trace"]) == 2
        assert "figure id" in capsys.readouterr().err

    def test_live_trace_exports_chrome_alongside_table(self, tmp_path, capsys):
        out = tmp_path / "chrome.json"
        assert main(
            ["trace", "fig14", "--accesses", "200", "--chrome", str(out)]
        ) == 0
        payload = json.loads(out.read_text())
        spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert spans
        names = {e["name"] for e in spans}
        assert "write.hash" in names


class TestLedgerVerb:
    def _anchor_copies(self, tmp_path) -> list[str]:
        paths = []
        for source in sorted(ANCHORS.glob("BENCH_*.json")):
            target = tmp_path / source.name
            shutil.copy(source, target)
            paths.append(str(target))
        return paths

    def test_add_then_ls_round_trip(self, tmp_path, capsys):
        records = self._anchor_copies(tmp_path)
        assert len(records) >= 2
        ledger = tmp_path / "ledger.json"
        assert main(["ledger", "add", *records, "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert f"indexed {len(records)} new record(s)" in out
        assert main(["ledger", "ls", "--ledger", str(ledger)]) == 0
        listing = capsys.readouterr().out
        assert "bench" in listing
        for record in records:
            assert record in listing  # source hints shown

    def test_readding_is_idempotent(self, tmp_path, capsys):
        records = self._anchor_copies(tmp_path)
        ledger = tmp_path / "ledger.json"
        assert main(["ledger", "add", *records, "--ledger", str(ledger)]) == 0
        capsys.readouterr()
        assert main(["ledger", "add", *records, "--ledger", str(ledger)]) == 0
        out = capsys.readouterr().out
        assert "indexed 0 new record(s)" in out
        assert f"{len(records)} already present" in out

    def test_ls_json_is_a_valid_ledger_payload(self, tmp_path, capsys):
        records = self._anchor_copies(tmp_path)
        ledger = tmp_path / "ledger.json"
        main(["ledger", "add", *records, "--ledger", str(ledger)])
        capsys.readouterr()
        assert main(["ledger", "ls", "--ledger", str(ledger), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "repro-ledger"
        assert len(payload["entries"]) == len(records)

    def test_add_without_records_exits_2(self, capsys):
        assert main(["ledger", "add"]) == 2
        assert "at least one record" in capsys.readouterr().err

    def test_unindexable_file_exits_2(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"kind": "shopping-list"}')
        assert main(["ledger", "add", str(bogus)]) == 2
        assert "record kind" in capsys.readouterr().err


class TestTrendVerb:
    def test_committed_anchors_trend_is_clean(self, capsys):
        assert main(["trend", str(ANCHORS)]) == 0
        out = capsys.readouterr().out
        assert "0 step regression(s)" in out
        assert "improved" in out
        assert "regressed" not in out.replace("step regression", "")

    def test_trend_json_round_trips(self, capsys):
        assert main(["trend", str(ANCHORS), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["points"] >= 2
        assert all(row["verdict"] != "regressed" for row in payload["cases"])

    def test_doctored_regression_is_flagged(self, tmp_path, capsys):
        # Copy the newest committed anchor, then append a doctored anchor
        # where every case got 10x slower: trend must flag the step.
        source = sorted(
            ANCHORS.glob("BENCH_*.json"),
            key=lambda p: json.loads(p.read_text())["created_unix_s"],
        )[-1]
        base = json.loads(source.read_text())
        (tmp_path / source.name).write_text(json.dumps(base))
        doctored = json.loads(source.read_text())
        doctored["created_unix_s"] = base["created_unix_s"] + 1000.0
        doctored["git_sha"] = "deadbeef" * 5
        for entry in doctored["results"].values():
            entry["best_s"] *= 10.0
            entry["per_op_ns"] *= 10.0
        (tmp_path / "BENCH_deadbeefdead.json").write_text(json.dumps(doctored))
        assert main(["trend", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "STEP REGRESSION" in out
        assert "deadbeef" in out
        assert "regressed" in out

    def test_missing_source_exits_2(self, tmp_path, capsys):
        assert main(["trend", str(tmp_path / "nope.json")]) == 2
        assert "trend:" in capsys.readouterr().err

    def test_one_bench_record_is_a_one_point_trend(self, capsys):
        record = sorted(ANCHORS.glob("BENCH_*.json"))[0]
        assert main(["trend", str(record)]) == 0
        assert "1 bench anchor(s)" in capsys.readouterr().out

    @pytest.mark.parametrize("directory", [False, True], ids=["record", "directory"])
    def test_truncated_bench_record_is_named_as_one(self, tmp_path, capsys, directory):
        record = sorted(ANCHORS.glob("BENCH_*.json"))[0]
        truncated = tmp_path / record.name
        truncated.write_text(record.read_text()[:300])
        assert main(["trend", str(tmp_path if directory else truncated)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [err[-1]]
        assert err[-1].startswith(f"trend: bench record {truncated} is not valid JSON: ")


class TestBenchGate:
    BENCH = ["bench", "--accesses", "150", "--repeats", "1",
             "--controllers", "dewrite"]

    def test_gate_passes_against_generous_anchors(self, tmp_path, capsys):
        self._write_anchor(tmp_path, best_s=1000.0, name="BENCH_aaaa.json",
                           created=1.0)
        self._write_anchor(tmp_path, best_s=2000.0, name="BENCH_bbbb.json",
                           created=2.0)
        assert main([*self.BENCH, "--gate", str(tmp_path / "anchors")]) == 0
        out = capsys.readouterr().out
        assert "gating against 2 anchor(s)" in out
        assert "per-case best-ever baseline" in out

    def test_gate_fails_against_impossible_anchor(self, tmp_path, capsys):
        self._write_anchor(tmp_path, best_s=1e-7, name="BENCH_aaaa.json",
                           created=1.0)
        assert main([*self.BENCH, "--gate", str(tmp_path / "anchors")]) == 1
        assert "REGRESSED controller.dewrite" in capsys.readouterr().out

    def test_gate_empty_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "anchors"
        empty.mkdir()
        assert main([*self.BENCH, "--gate", str(empty)]) == 2
        assert "no BENCH_*.json anchors" in capsys.readouterr().err

    @staticmethod
    def _write_anchor(tmp_path, *, best_s: float, name: str, created: float):
        anchors = tmp_path / "anchors"
        anchors.mkdir(exist_ok=True)
        payload = {
            "schema": 2,
            "kind": "repro-bench",
            "created_unix_s": created,
            "git_sha": None,
            "python": "3.12.0",
            "platform": "linux-test",
            "scale": {"accesses": 150, "repeats": 1},
            "results": {
                "controller.dewrite": {
                    "best_s": best_s,
                    "per_op_ns": best_s * 1e9 / 150,
                    "ops": 150,
                }
            },
        }
        (anchors / name).write_text(json.dumps(payload))
