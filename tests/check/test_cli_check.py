"""Acceptance tests for ``python -m repro check`` and the self-lint gate."""

from __future__ import annotations

import re
from pathlib import Path

import repro
from repro.__main__ import main
from repro.check.baseline import Baseline, discover_baseline, fingerprint
from repro.check.lint import lint_paths

PACKAGE_DIR = Path(repro.__file__).parent


class TestSelfLint:
    def test_repro_package_is_lint_clean_under_baseline(self):
        # The dogfood gate: the full 11-rule pass over src/repro must
        # report nothing beyond the committed baseline.
        baseline_path = discover_baseline(PACKAGE_DIR)
        assert baseline_path is not None, "simlint-baseline.json missing from repo"
        report = lint_paths([PACKAGE_DIR], baseline=Baseline.load(baseline_path))
        assert report.clean, report.render()
        assert report.files_checked > 50
        assert report.rules_run == 11

    def test_unbaselined_findings_are_all_known_debt(self):
        # Without the baseline the same run may surface the recorded
        # debt, but every finding must be one the baseline accounts for —
        # anything else is a new violation that should fail this test.
        baseline = Baseline.load(discover_baseline(PACKAGE_DIR))
        report = lint_paths([PACKAGE_DIR])
        unknown = [
            v for v in report.violations
            if baseline.counts.get(fingerprint(v), 0) == 0
        ]
        assert not unknown, "\n".join(v.render() for v in unknown)


class TestCliLint:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check", "--lint", str(PACKAGE_DIR)]) == 0
        out = capsys.readouterr().out
        assert "0 violation(s)" in out

    def test_planted_sim001_violation_fails_with_location_and_fixit(
        self, tmp_path: Path, capsys
    ):
        bad = tmp_path / "repro" / "workloads" / "planted.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import random\nvalue = random.random()\n", encoding="utf-8")
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM001" in out
        assert re.search(r"planted\.py:2:\d+", out), out  # file:line:col
        assert "[fix:" in out

    def test_planted_sim004_violation_fails_with_rule_id(
        self, tmp_path: Path, capsys
    ):
        bad = tmp_path / "repro" / "core" / "planted.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "class Controller:\n"
            "    def write(self):\n"
            "        self.stats.bogus_counter += 1\n",
            encoding="utf-8",
        )
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "SIM004" in out
        assert "bogus_counter" in out
        assert "[fix:" in out

    def test_suppressed_violation_exits_zero(self, tmp_path: Path, capsys):
        ok = tmp_path / "sanctioned.py"
        ok.write_text(
            "import random\n"
            "value = random.random()  # simlint: disable=SIM001\n",
            encoding="utf-8",
        )
        assert main(["check", "--lint", str(ok)]) == 0


class TestCliInvariants:
    def test_invariant_pass_exits_zero(self, capsys):
        assert main(["check", "--invariants", "--accesses", "400"]) == 0
        out = capsys.readouterr().out
        assert "invariants: all 16 runs clean" in out
        assert "deep sweeps" in out

    def test_default_runs_both_passes(self, capsys):
        assert main(["check", "--accesses", "300", str(PACKAGE_DIR)]) == 0
        out = capsys.readouterr().out
        assert "simlint" in out
        assert "invariants" in out
