"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pytest

from repro.__main__ import main


@pytest.fixture(autouse=True)
def _hermetic_cache(tmp_path, monkeypatch):
    """Keep CLI invocations away from the user's ~/.cache/repro and keep
    the default ``manifest.json`` out of the checkout."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cli-cache"))
    monkeypatch.chdir(tmp_path)
    yield
    from repro.runner import provider

    provider.reset()


class TestList:
    def test_lists_figures_and_apps(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig13" in out
        assert "storage" in out
        assert "lbm" in out
        assert "vips" in out


class TestCompare:
    def test_compare_prints_speedups(self, capsys):
        assert main(["compare", "--app", "lbm", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "write reduction" in out
        assert "write speedup" in out
        assert "lbm" in out

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            main(["compare", "--app", "doom3", "--accesses", "100"])


class TestFigure:
    def test_storage_figure(self, capsys):
        assert main(["figure", "storage"]) == 0
        out = capsys.readouterr().out
        assert "DEUCE" in out

    def test_fig2_with_subset(self, capsys):
        assert main(["figure", "fig2", "--apps", "mcf,vips", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "vips" in out and "AVERAGE" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestRun:
    ARGS = ["run", "fig12", "--apps", "lbm,mcf", "--accesses", "1500"]

    def test_smoke_without_cache(self, capsys):
        assert main([*self.ARGS, "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "Fig. 12" in captured.out
        assert "cache-stats:" in captured.err
        assert "4 executed" in captured.err

    def test_warm_cache_rerun_executes_zero_simulations(self, tmp_path, capsys):
        cache_args = [*self.ARGS, "--cache-dir", str(tmp_path / "c")]
        assert main(cache_args) == 0
        cold = capsys.readouterr()
        assert main(cache_args) == 0
        warm = capsys.readouterr()
        assert "0 simulations executed" in warm.err
        assert "4 warm from cache" in warm.err
        assert warm.out == cold.out  # byte-identical figures from the cache

    def test_multiple_figures_and_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "tables"
        code = main(
            ["run", "fig12", "fig13", "--apps", "lbm", "--accesses", "800",
             "--no-cache", "--out", str(out_dir)]
        )
        assert code == 0
        assert (out_dir / "fig12.txt").exists()
        assert (out_dir / "fig13.txt").exists()
        capsys.readouterr()

    def test_parallel_matches_serial_output(self, capsys):
        assert main([*self.ARGS, "--no-cache"]) == 0
        serial = capsys.readouterr().out
        from repro.runner import provider

        provider.reset()
        assert main([*self.ARGS, "--no-cache", "--parallel", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_unknown_figure_rejected(self):
        with pytest.raises(KeyError):
            main(["run", "fig99", "--no-cache"])


class TestRegress:
    def test_clean_comparison_exits_zero(self, tmp_path, capsys):
        from repro.analysis.export import dump_json, table_to_dict
        from repro.analysis.reporting import Table

        table = Table("T", ["app", "v"])
        table.add_row("lbm", 4.0)
        dump_json(table_to_dict(table), tmp_path / "a.json")
        dump_json(table_to_dict(table), tmp_path / "b.json")
        assert main(["regress", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_drift_exits_nonzero(self, tmp_path, capsys):
        from repro.analysis.export import dump_json, table_to_dict
        from repro.analysis.reporting import Table

        a = Table("T", ["app", "v"])
        a.add_row("lbm", 4.0)
        b = Table("T", ["app", "v"])
        b.add_row("lbm", 8.0)
        dump_json(table_to_dict(a), tmp_path / "a.json")
        dump_json(table_to_dict(b), tmp_path / "b.json")
        assert main(["regress", str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
        assert "lbm/v" in capsys.readouterr().out


class TestAccessesOption:
    """Every verb's ``--accesses`` takes a positive integer or is a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["figure", "fig2"],
            ["run", "fig2"],
            ["timeline", "fig12"],
            ["faults", "system"],
            ["trace", "fig14"],
            ["profile", "fig12"],
            ["wear", "fig12"],
            ["bench"],
            ["compare", "--app", "lbm"],
            ["check", "--invariants"],
            ["serve"],
            ["loadgen"],
        ],
        ids=lambda argv: argv[0],
    )
    @pytest.mark.parametrize("value", ["0", "-3", "many"])
    def test_bad_value_is_a_one_line_usage_error(self, argv, value, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--accesses", value])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = captured.err.strip().splitlines()[-1]
        assert error.startswith(f"repro {argv[0]}: error: argument --accesses: ")

    def test_positive_value_parses(self):
        from repro.__main__ import _build_parser

        assert _build_parser().parse_args(["figure", "fig2", "--accesses", "7"]).accesses == 7


class TestTopLevelPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
