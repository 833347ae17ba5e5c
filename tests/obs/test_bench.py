"""The microbenchmark harness: suite, records, and the regression gate."""

from __future__ import annotations

import json

import pytest

from repro.obs.bench import (
    ACCEPTED_BENCH_SCHEMA_VERSIONS,
    BENCH_KIND,
    BENCH_SCHEMA_VERSION,
    BenchCase,
    build_record,
    compare_records,
    default_suite,
    load_record,
    record_filename,
    run_suite,
    validate_record,
    write_record,
)


def make_record(results: dict[str, float]) -> dict:
    return build_record(
        {
            name: {"best_s": best, "ops": 10, "per_op_ns": best / 10 * 1e9}
            for name, best in results.items()
        },
        scale={"accesses": 10},
    )


class TestSuite:
    def test_default_suite_covers_all_hot_paths(self):
        from repro.core.registry import available_controllers

        cases = default_suite(accesses=50, controllers=None)
        names = {case.name for case in cases}
        for controller in available_controllers():
            assert f"controller.{controller}" in names
        for circuit in ("crc32", "sha1", "md5", "crc32-stdlib"):
            assert f"hash.{circuit}" in names
        assert "metadata.cache" in names
        assert {"workloads.trace.lbm", "workloads.trace.bzip2"} <= names

    def test_controller_subset_respected(self):
        cases = default_suite(accesses=50, controllers=["dewrite"])
        controller_cases = [c for c in cases if c.name.startswith("controller.")]
        assert [c.name for c in controller_cases] == ["controller.dewrite"]

    def test_run_suite_keeps_minimum(self):
        calls: list[int] = []

        def make():
            def run() -> None:
                calls.append(1)

            return run

        results = run_suite(
            [BenchCase(name="noop", ops=4, make=make)], repeats=3
        )
        assert calls == [1] * 4  # 1 warmup + 3 measured
        entry = results["noop"]
        assert entry["ops"] == 4
        assert entry["best_s"] >= 0.0
        assert entry["per_op_ns"] == pytest.approx(entry["best_s"] / 4 * 1e9)

    def test_run_suite_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_suite([], repeats=0)

    @pytest.mark.slow
    def test_real_suite_produces_positive_timings(self):
        cases = default_suite(accesses=120, controllers=["dewrite"], hash_lines=8)
        results = run_suite(cases, repeats=1)
        assert all(entry["best_s"] > 0.0 for entry in results.values())


class TestRecords:
    def test_record_schema_valid_and_round_trips(self, tmp_path):
        record = make_record({"controller.dewrite": 0.01})
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert record["kind"] == BENCH_KIND
        assert validate_record(record) == []
        path = write_record(record, tmp_path)
        assert path.name == record_filename(record)
        assert load_record(path) == json.loads(path.read_text())

    def test_filename_uses_git_sha_prefix(self):
        record = make_record({"x": 0.01})
        name = record_filename(record)
        if record["git_sha"]:
            assert name == f"BENCH_{record['git_sha'][:12]}.json"
        else:
            assert name == "BENCH_nogit.json"

    def test_validation_catches_problems(self):
        assert validate_record([]) != []
        assert any("results" in p for p in validate_record(
            {"schema": BENCH_SCHEMA_VERSION, "kind": BENCH_KIND,
             "created_unix_s": 0, "python": "3", "platform": "x",
             "git_sha": None, "scale": {}, "results": {}}
        ))
        bad = make_record({"x": 0.01})
        bad["results"]["x"]["ops"] = "ten"
        assert any("ops" in p for p in validate_record(bad))

    def test_load_record_rejects_invalid(self, tmp_path):
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps({"schema": 0}))
        with pytest.raises(ValueError, match="validation"):
            load_record(path)


class TestGate:
    def test_self_comparison_is_clean(self):
        record = make_record({"a": 0.010, "b": 0.002})
        comparison = compare_records(record, record)
        assert comparison.ok
        assert comparison.within == 2
        assert "0 regressed" in comparison.render()

    def test_regression_beyond_both_thresholds_fails(self):
        baseline = make_record({"a": 0.010})
        current = make_record({"a": 0.020})  # +100 %, +10 ms
        comparison = compare_records(current, baseline, threshold=0.30)
        assert not comparison.ok
        assert comparison.regressions[0]["name"] == "a"
        assert comparison.regressions[0]["change"] == pytest.approx(1.0)
        assert "REGRESSED a" in comparison.render()

    def test_small_absolute_delta_never_regresses(self):
        # +300 % relative but only 30 µs absolute: timer noise, not signal.
        baseline = make_record({"a": 0.00001})
        current = make_record({"a": 0.00004})
        assert compare_records(current, baseline, threshold=0.30).ok

    def test_improvement_reported_not_failed(self):
        baseline = make_record({"a": 0.020})
        current = make_record({"a": 0.010})
        comparison = compare_records(current, baseline, threshold=0.30)
        assert comparison.ok
        assert comparison.improvements[0]["change"] == pytest.approx(-0.5)

    def test_one_sided_cases_reported_separately(self):
        baseline = make_record({"a": 0.01, "gone": 0.01})
        current = make_record({"a": 0.01, "new": 0.01})
        comparison = compare_records(current, baseline)
        assert comparison.ok  # appeared/vanished never gate
        assert comparison.appeared == ["new"]
        assert comparison.vanished == ["gone"]
        # And never as ±inf relative changes.
        assert all(
            entry["change"] not in (float("inf"), float("-inf"))
            for entry in comparison.regressions + comparison.improvements
        )


class TestAnchorProvenance:
    """The composite baseline names which anchor set each case's bar."""

    def _anchor(self, results: dict[str, float], sha: str, created: float) -> dict:
        record = make_record(results)
        record["git_sha"] = sha
        record["created_unix_s"] = created
        return record

    def test_winning_anchor_sha_stamped_per_case(self):
        from repro.obs.bench import composite_baseline

        old = self._anchor({"a": 0.010, "b": 0.005}, "a" * 40, 1.0)
        new = self._anchor({"a": 0.008, "b": 0.007}, "b" * 40, 2.0)
        baseline = composite_baseline([old, new])
        assert baseline["results"]["a"]["anchor_git_sha"] == "b" * 40
        assert baseline["results"]["b"]["anchor_git_sha"] == "a" * 40

    def test_gate_failure_names_the_anchor(self):
        from repro.obs.bench import composite_baseline

        anchor = self._anchor({"a": 0.010}, "deadbeef" * 5, 1.0)
        baseline = composite_baseline([anchor])
        current = make_record({"a": 0.025})
        comparison = compare_records(current, baseline, threshold=0.30)
        assert not comparison.ok
        assert comparison.regressions[0]["anchor_git_sha"] == "deadbeef" * 5
        assert "[anchor deadbeefdead]" in comparison.render()

    def test_improvement_line_names_the_anchor_too(self):
        from repro.obs.bench import composite_baseline

        anchor = self._anchor({"a": 0.020}, "cafef00d" * 5, 1.0)
        baseline = composite_baseline([anchor])
        comparison = compare_records(
            make_record({"a": 0.010}), baseline, threshold=0.30
        )
        assert comparison.ok
        assert "[anchor cafef00dcafe]" in comparison.render()

    def test_sha_free_baseline_renders_without_suffix(self):
        baseline = make_record({"a": 0.010})
        baseline["results"]["a"].pop("anchor_git_sha", None)
        comparison = compare_records(
            make_record({"a": 0.025}), baseline, threshold=0.30
        )
        assert not comparison.ok
        assert "[anchor" not in comparison.render()


class TestStageBreakdown:
    """Schema v2 ``stages`` section and regression attribution."""

    def stage_section(self, total_crypto: float = 5000.0, total_nvm: float = 9000.0):
        return {
            "controller.dewrite": {
                "kernel": "DeWriteController.service_batch",
                "stages": {
                    "write.crypto": {"count": 10, "total_ns": total_crypto},
                    "write.nvm": {"count": 10, "total_ns": total_nvm},
                },
            }
        }

    def record_with_stages(self, best_s: float, **stage_kwargs) -> dict:
        return build_record(
            {
                "controller.dewrite": {
                    "best_s": best_s,
                    "ops": 10,
                    "per_op_ns": best_s / 10 * 1e9,
                }
            },
            scale={"accesses": 10},
            stages=self.stage_section(**stage_kwargs),
        )

    def test_record_with_stages_validates(self):
        record = self.record_with_stages(0.01)
        assert record["schema"] == BENCH_SCHEMA_VERSION
        assert validate_record(record) == []
        assert list(record["stages"]) == ["controller.dewrite"]

    def test_v1_record_without_stages_still_accepted(self):
        # Committed v1 anchors must keep loading under the v2 gate.
        record = make_record({"controller.dewrite": 0.01})
        record["schema"] = 1
        assert 1 in ACCEPTED_BENCH_SCHEMA_VERSIONS
        assert validate_record(record) == []

    def test_malformed_stages_rejected(self):
        record = self.record_with_stages(0.01)
        record["stages"]["controller.dewrite"]["stages"]["write.crypto"]["count"] = "x"
        assert any("count" in problem for problem in validate_record(record))
        record = self.record_with_stages(0.01)
        record["stages"] = []
        assert any("stages" in problem for problem in validate_record(record))

    def test_collect_stage_breakdown_shape(self):
        from repro.obs.bench import collect_stage_breakdown

        breakdown = collect_stage_breakdown(accesses=120, controllers=["dewrite"])
        entry = breakdown["controller.dewrite"]
        assert entry["kernel"] == "DeWriteController.service_batch"
        assert "write.crypto" in entry["stages"]
        for fields in entry["stages"].values():
            assert fields["count"] > 0
            assert fields["total_ns"] >= 0.0

    def test_regression_attributed_to_drifted_stage(self):
        baseline = self.record_with_stages(0.010)
        current = self.record_with_stages(0.020, total_nvm=50_000.0)
        comparison = compare_records(current, baseline, threshold=0.30)
        assert not comparison.ok
        (note,) = comparison.stage_notes
        assert "write.nvm" in note
        assert "DeWriteController.service_batch" in note
        assert "stage:" in comparison.render()

    def test_unchanged_stage_totals_blame_host_side(self):
        # Same simulated work, 2x wall time: the bench got slower without
        # the model doing more — the code (host side) regressed.
        baseline = self.record_with_stages(0.010)
        current = self.record_with_stages(0.020)
        comparison = compare_records(current, baseline, threshold=0.30)
        (note,) = comparison.stage_notes
        assert "host-side" in note

    def test_v1_baseline_degrades_gracefully(self):
        # Regression against a stage-less v1 anchor: gate still fires,
        # attribution is silently absent.
        baseline = make_record({"controller.dewrite": 0.010})
        current = self.record_with_stages(0.020)
        comparison = compare_records(current, baseline, threshold=0.30)
        assert not comparison.ok
        assert comparison.stage_notes == []
