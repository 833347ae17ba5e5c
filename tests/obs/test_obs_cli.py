"""The observability CLI verbs: ``trace``, ``stats``, and run manifests."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.obs.manifest import validate_manifest
from repro.obs.metrics import reset_registry

FIXTURES = Path(__file__).parent / "fixtures" / "drift"


@pytest.fixture(autouse=True)
def _hermetic(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    monkeypatch.chdir(tmp_path)
    reset_registry()
    yield
    from repro.runner import provider

    provider.reset()
    reset_registry()


class TestTrace:
    def test_trace_prints_stage_table(self, capsys):
        assert main(["trace", "fig14", "--accesses", "400"]) == 0
        out = capsys.readouterr().out
        for stage in ("write.hash", "write.dedup", "read.nvm", "nvm.read"):
            assert stage in out
        assert "p95 ns" in out

    def test_trace_alias_resolves_to_system_experiment(self, capsys):
        assert main(["trace", "fig14", "--accesses", "200"]) == 0
        assert "system" in capsys.readouterr().out

    def test_trace_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "t.jsonl"
        assert main(["trace", "fig14", "--accesses", "300", "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records, "no records written"
        names = {record["name"] for record in records}
        for stage in ("write.hash", "write.dedup", "nvm.read"):
            assert stage in names
        # Every record carries the run context installed by the verb.
        assert all(record["ctx"]["app"] == "lbm" for record in records)
        assert f"wrote {len(records)} records" in capsys.readouterr().out

    def test_trace_other_controller(self, capsys):
        assert main(
            ["trace", "fig14", "--accesses", "200", "--controller", "secure-nvm"]
        ) == 0
        out = capsys.readouterr().out
        assert "write.crypto" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["trace", "fig99", "--accesses", "100"])
        assert exit_info.value.code == 2


class TestRunManifest:
    RUN = ["run", "fig12", "--apps", "lbm", "--accesses", "600", "--no-cache"]

    def test_run_writes_valid_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "m.json"
        assert main([*self.RUN, "--manifest", str(manifest_path)]) == 0
        assert f"manifest: {manifest_path}" in capsys.readouterr().err
        payload = json.loads(manifest_path.read_text())
        assert validate_manifest(payload) == []
        assert payload["figures"] == ["fig12"]
        assert payload["settings"]["applications"] == ["lbm"]
        assert payload["cache"]["executed"] == 2
        assert len(payload["jobs"]) == 2
        assert all(job["source"] == "executed" for job in payload["jobs"])
        assert payload["metrics"]["jobs.simulate"]["value"] == 2.0

    def test_no_manifest_flag_suppresses_writing(self, tmp_path, capsys):
        assert main([*self.RUN, "--no-manifest"]) == 0
        assert "manifest:" not in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_figure_alias_accepted_by_run(self, tmp_path, capsys):
        manifest_path = tmp_path / "alias.json"
        assert main(
            ["run", "fig14", "--apps", "lbm", "--accesses", "600", "--no-cache",
             "--manifest", str(manifest_path)]
        ) == 0
        payload = json.loads(manifest_path.read_text())
        assert payload["figures"] == ["system"]
        capsys.readouterr()

    def test_warm_cache_jobs_marked_as_cache_hits(self, tmp_path, capsys):
        manifest_path = tmp_path / "warm.json"
        cached = ["run", "fig12", "--apps", "lbm", "--accesses", "600",
                  "--cache-dir", str(tmp_path / "c"), "--manifest", str(manifest_path)]
        assert main(cached) == 0
        assert main(cached) == 0
        payload = json.loads(manifest_path.read_text())
        assert validate_manifest(payload) == []
        assert all(job["source"] == "cache" for job in payload["jobs"])
        assert payload["cache"]["executed"] == 0
        capsys.readouterr()


class TestStats:
    RUN = ["run", "fig12", "--apps", "lbm", "--accesses", "600", "--no-cache"]

    def _write_manifest(self, path):
        assert main([*self.RUN, "--manifest", str(path)]) == 0

    def test_stats_reports_valid_manifest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_manifest(path)
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "stats: manifest is valid" in out
        assert "figures:   fig12" in out
        assert "jobs:" in out

    def test_stats_json_emits_summary_digest(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        self._write_manifest(path)
        capsys.readouterr()
        assert main(["stats", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["problems"] == []
        assert payload["figures"] == ["fig12"]
        assert payload["jobs"]["total"] == 2
        assert payload["jobs"]["by_source"] == {"executed": 2}
        # Digest only — the raw job list never appears in --json output.
        assert "kind" not in payload

    def test_stats_json_invalid_manifest_exits_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "repro-run-manifest"}))
        assert main(["stats", str(path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is False
        assert payload["problems"]

    def test_stats_flags_invalid_manifest(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 1, "kind": "repro-run-manifest"}))
        assert main(["stats", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out

    def test_stats_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.json")]) == 1
        assert "stats:" in capsys.readouterr().err


class TestTimeline:
    CMD = ["timeline", "fig12", "--apps", "lbm", "--accesses", "800",
           "--window-ns", "2e5", "--no-cache"]

    def test_timeline_prints_window_table(self, capsys):
        assert main(self.CMD) == 0
        out = capsys.readouterr().out
        assert "window" in out and "dup%" in out and "flips" in out
        assert "dewrite on lbm" in out

    def test_timeline_exports_and_manifest(self, tmp_path, capsys):
        csv = tmp_path / "tl.csv"
        jsonl = tmp_path / "tl.jsonl"
        manifest = tmp_path / "tl-manifest.json"
        assert main([*self.CMD, "--csv", str(csv), "--jsonl", str(jsonl),
                     "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert csv.read_text().startswith("window,start_ns,writes")
        rows = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert rows and all("dedup_ratio" in row for row in rows)
        payload = json.loads(manifest.read_text())
        assert validate_manifest(payload) == []
        assert payload["timeline"]["windows"]
        # Every CSV/JSONL window is in the manifest snapshot.
        assert len(payload["timeline"]["windows"]) == len(rows)

    def test_timeline_merges_multiple_apps(self, capsys):
        assert main(["timeline", "fig12", "--apps", "lbm,mcf", "--accesses",
                     "400", "--window-ns", "1e9", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "lbm, mcf" in out

    def test_stats_reports_timeline_section(self, tmp_path, capsys):
        manifest = tmp_path / "tl-manifest.json"
        assert main([*self.CMD, "--manifest", str(manifest)]) == 0
        capsys.readouterr()
        assert main(["stats", str(manifest)]) == 0
        assert "timeline:" in capsys.readouterr().out
        assert main(["stats", str(manifest), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["timeline"]["windows"] >= 1


class TestWear:
    def test_wear_prints_heatmap_tables_and_lifetime(self, capsys):
        assert main(["wear", "fig12", "--app", "lbm", "--accesses", "600",
                     "--rows", "2", "--cols", "8"]) == 0
        out = capsys.readouterr().out
        assert "wear heatmap" in out
        assert "bank" in out and "region" in out
        assert "projected lifetime (dewrite)" in out
        assert "extends lifetime" in out

    def test_wear_no_baseline_and_csv(self, tmp_path, capsys):
        csv = tmp_path / "wear.csv"
        assert main(["wear", "fig12", "--app", "lbm", "--accesses", "400",
                     "--baseline", "none", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "extends lifetime" not in out
        assert csv.exists() and "," in csv.read_text()

    def test_wear_flips_metric(self, capsys):
        assert main(["wear", "fig13", "--app", "mcf", "--accesses", "400",
                     "--metric", "flips", "--baseline", "none"]) == 0
        assert "flips over lines" in capsys.readouterr().out


class TestDiff:
    TIMELINE = ["timeline", "fig12", "--apps", "lbm", "--accesses", "600",
                "--window-ns", "2e5", "--no-cache"]

    def _manifest(self, path):
        assert main([*self.TIMELINE, "--manifest", str(path)]) == 0

    def test_same_run_twice_reports_zero_drift(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._manifest(a)
        self._manifest(b)
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "no deterministic drift" in out

    def test_different_workloads_drift(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        self._manifest(a)
        assert main(["timeline", "fig12", "--apps", "mcf", "--accesses", "600",
                     "--window-ns", "2e5", "--no-cache", "--manifest", str(b)]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT detected" in out

    def test_diff_json_mode(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._manifest(a)
        capsys.readouterr()
        assert main(["diff", str(a), str(a), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deterministic_drift"] is False
        assert payload["manifest"]["timeline_windows_compared"] >= 1

    def test_diff_traces_and_figures(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._manifest(a)
        trace_a, trace_b = tmp_path / "ta.jsonl", tmp_path / "tb.jsonl"
        assert main(["trace", "fig14", "--accesses", "300", "--out", str(trace_a)]) == 0
        assert main(["trace", "fig14", "--accesses", "300", "--out", str(trace_b)]) == 0
        figs_a, figs_b = tmp_path / "fa", tmp_path / "fb"
        figs_a.mkdir(), figs_b.mkdir()
        table = {"headers": ["app", "x"], "rows": [["lbm", 1.0]]}
        (figs_a / "fig.json").write_text(json.dumps(table))
        (figs_b / "fig.json").write_text(json.dumps(table))
        capsys.readouterr()
        assert main(["diff", str(a), str(a),
                     "--trace-a", str(trace_a), "--trace-b", str(trace_b),
                     "--figures-a", str(figs_a), "--figures-b", str(figs_b)]) == 0
        out = capsys.readouterr().out
        assert "percentiles match" in out
        assert "fig.json: clean" in out

    def test_diff_reads_run_out_directories(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._manifest(a)
        run = ["run", "fig2", "--apps", "lbm", "--accesses", "300", "--no-cache",
               "--no-manifest", "--out"]
        assert main([*run, str(tmp_path / "fa")]) == 0
        assert main([*run, str(tmp_path / "fb")]) == 0
        capsys.readouterr()
        assert main(["diff", str(a), str(a), "--figures-a", str(tmp_path / "fa"),
                     "--figures-b", str(tmp_path / "fb")]) == 0
        assert "figures: fig2.json: clean" in capsys.readouterr().out

    def test_diff_one_sided_trace_flag_rejected(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        self._manifest(a)
        capsys.readouterr()
        assert main(["diff", str(a), str(a), "--trace-a", "x.jsonl"]) == 2
        assert "together" in capsys.readouterr().err

    def test_diff_missing_manifest_fails_cleanly(self, tmp_path, capsys):
        assert main(["diff", str(tmp_path / "nope.json"),
                     str(tmp_path / "nope2.json")]) == 2
        assert "diff:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, content", [
        ("--trace", '{"type": "span"}\nnot json\n'),
        ("--trace", '{"type": "span", "clock": "sim"}\n'),
        ("--figures", "{truncated"),
    ])
    def test_diff_malformed_trace_or_figure_fails_cleanly(self, flag, content, tmp_path, capsys):
        manifest = str(FIXTURES / "manifest_a.json")
        if flag == "--trace":
            bad = tmp_path / "bad.jsonl"
            bad.write_text(content)
        else:
            bad = tmp_path / "figs"
            bad.mkdir()
            (bad / "fig12.json").write_text(content)
        assert main(["diff", manifest, manifest,
                     f"{flag}-a", str(bad), f"{flag}-b", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("diff: ") and "Traceback" not in err


class TestRegress:
    TABLE = {"headers": ["app", "speedup"], "rows": [["lbm", 4.0]]}

    @pytest.mark.parametrize("problem", ["missing", "malformed", "not-a-table", "headers"])
    def test_bad_input_fails_cleanly(self, problem, tmp_path, capsys):
        reference, current = tmp_path / "ref.json", tmp_path / "cur.json"
        reference.write_text(json.dumps(self.TABLE))
        if problem == "malformed":
            current.write_text('{"headers": ["app", ')
        elif problem == "not-a-table":
            current.write_text("[1, 2]")
        elif problem == "headers":
            current.write_text(json.dumps({**self.TABLE, "headers": ["app", "other"]}))
        assert main(["regress", str(reference), str(current)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("regress: ") and "Traceback" not in err


class TestBench:
    BENCH = ["bench", "--accesses", "60", "--repeats", "1",
             "--controllers", "dewrite"]

    @pytest.mark.slow
    def test_bench_writes_valid_record(self, tmp_path, capsys):
        from repro.obs.bench import load_record, record_filename

        assert main([*self.BENCH, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "controller.dewrite" in out and "ns/op" in out
        (path,) = tmp_path.glob("BENCH_*.json")
        record = load_record(path)  # raises if schema-invalid
        assert path.name == record_filename(record)
        assert record["scale"]["accesses"] == 60

    @pytest.mark.slow
    def test_bench_check_against_own_baseline_passes(self, tmp_path, capsys):
        assert main([*self.BENCH, "--out", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("BENCH_*.json")
        assert main([*self.BENCH, "--out", str(tmp_path),
                     "--check", str(path)]) == 0
        assert "bench gate" in capsys.readouterr().out

    @pytest.mark.slow
    def test_bench_check_detects_doctored_regression(self, tmp_path, capsys):
        assert main([*self.BENCH, "--out", str(tmp_path)]) == 0
        (path,) = tmp_path.glob("BENCH_*.json")
        record = json.loads(path.read_text())
        for entry in record["results"].values():
            entry["best_s"] /= 100.0  # baseline was "100x faster"
        doctored = path.with_name("BENCH_doctored.json")
        doctored.write_text(json.dumps(record))
        capsys.readouterr()
        assert main([*self.BENCH, "--out", str(tmp_path),
                     "--check", str(doctored)]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_bench_check_missing_baseline_fails_cleanly(self, tmp_path, capsys):
        assert main([*self.BENCH, "--out", str(tmp_path),
                     "--check", str(tmp_path / "absent.json")]) == 2
        assert "cannot load baseline" in capsys.readouterr().err


class TestProfile:
    """The stage profile ``trace`` folds from its spans: ``--flamegraph``
    and the ``stages`` section of ``--manifest``."""

    PROFILE = ["trace", "fig14", "--accesses", "300"]

    def test_profile_keeps_kernels_fused(self, tmp_path, capsys):
        from repro.obs.metrics import registry

        assert main([*self.PROFILE, "--flamegraph", str(tmp_path / "stages.folded"),
                     "--manifest", str(tmp_path / "m.json")]) == 0
        fallbacks = [n for n in registry().names() if n.startswith("batch.fallback.")]
        assert fallbacks == []

    def test_profile_writes_flamegraph(self, tmp_path, capsys):
        folded = tmp_path / "out" / "stages.folded"
        assert main([*self.PROFILE, "--flamegraph", str(folded)]) == 0
        frames = folded.read_text().splitlines()
        assert frames
        for frame in frames:
            stack, _, weight = frame.rpartition(" ")
            assert int(weight) > 0
            assert stack.startswith("controller;DeWriteController.service_batch;")
        assert f"wrote {len(frames)} flamegraph frame(s)" in capsys.readouterr().err

    def test_profile_manifest_carries_stages_for_diff(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main([*self.PROFILE, "--manifest", str(a)]) == 0
        assert main([*self.PROFILE, "--manifest", str(b)]) == 0
        payload = json.loads(a.read_text())
        assert validate_manifest(payload) == []
        assert payload["stages"]["stages"], "manifest carries no stage entries"
        assert payload["options"]["command"] == "trace"
        capsys.readouterr()
        assert main(["diff", str(a), str(b)]) == 0
        assert "deterministic state identical" in capsys.readouterr().out

    def test_stats_reports_stages_and_fallback_sections(self, tmp_path, capsys):
        manifest = tmp_path / "profiled.json"
        assert main([*self.PROFILE, "--manifest", str(manifest)]) == 0
        # Doctor in a fallback counter to exercise the stats rendering.
        payload = json.loads(manifest.read_text())
        payload["metrics"]["batch.fallback.tracer"] = {"kind": "counter", "value": 3.0}
        manifest.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["stats", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "stages:" in out and "summary mode" in out
        assert "fallbacks: tracer=3 (batches driven scalar)" in out

    def test_profile_other_controller(self, tmp_path, capsys):
        folded = tmp_path / "stages.folded"
        assert main(["trace", "fig14", "--accesses", "200",
                     "--controller", "silent-shredder", "--flamegraph", str(folded)]) == 0
        assert "SilentShredderController.service_batch" in folded.read_text()
