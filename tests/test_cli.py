"""The ``python -m repro`` command-line interface."""

from __future__ import annotations

import pathlib

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
        # A usage error (exit 2) at parse time, not a KeyError traceback.
        with pytest.raises(SystemExit) as exit_info:
            main(["compare", "--app", "doom3", "--accesses", "100"])
        assert exit_info.value.code == 2


class TestFigure:
    """One figure table rendered through ``run``."""

    def test_storage_figure(self, capsys):
        assert main(["run", "storage", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "DEUCE" in out

    def test_fig2_with_subset(self, capsys):
        assert main(["run", "fig2", "--apps", "mcf,vips", "--accesses", "2000",
                     "--no-manifest"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "vips" in out and "AVERAGE" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig99", "--no-manifest"])
        assert exit_info.value.code == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["figure", "profile"])
    def test_folded_verbs_are_usage_errors(self, verb, capsys):
        # ``figure`` is ``run``'s view and ``profile`` is ``trace``'s.
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "fig14"])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err.strip().splitlines()[-1]

    def test_chart_under_tables_with_the_column(self, capsys):
        assert main(["run", "fig2", "storage", "--apps", "mcf", "--accesses", "500",
                     "--no-cache", "--no-manifest", "--chart", "duplicate_ratio"]) == 0
        out = capsys.readouterr().out
        assert out.count("— duplicate_ratio") == 1
        assert out.index("— duplicate_ratio") > out.index("Fig. 2")

    @pytest.mark.parametrize("column", ["nosuch", "application"])
    def test_chart_on_unknown_column_is_one_line_exit_2(self, column, capsys):
        code = main(["run", "fig2", "--apps", "mcf", "--accesses", "500",
                     "--no-cache", "--no-manifest", "--chart", column])
        assert code == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        last = error.strip().splitlines()[-1]
        assert last.startswith(
            f"repro run: error: argument --chart: no numeric column {column!r} in fig2 ("
        )
        assert "duplicate_ratio" in last


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
        for figure in ("fig12", "fig13"):
            assert (out_dir / f"{figure}.txt").exists()
            assert (out_dir / f"{figure}.json").exists()
        capsys.readouterr()
        # The export is what ``regress`` reads.
        export = str(out_dir / "fig12.json")
        assert main(["regress", export, export]) == 0

    def test_parallel_matches_serial_output(self, capsys):
        assert main([*self.ARGS, "--no-cache"]) == 0
        serial = capsys.readouterr().out
        from repro.runner import provider

        provider.reset()
        assert main([*self.ARGS, "--no-cache", "--parallel", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig99", "--no-cache"])
        assert exit_info.value.code == 2


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
            ["run", "fig2"],
            ["timeline", "fig12"],
            ["faults", "system"],
            ["trace", "fig14"],
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

        assert _build_parser().parse_args(["run", "fig2", "--accesses", "7"]).accesses == 7


class TestBadInputIsAUsageError:
    """Unknown names and out-of-range sizes end in one usage line, exit 2."""

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["run", "nosuch"], "FIGURE"),
            (["trace", "nosuch"], "figure"),
            (["timeline", "nosuch"], "figure"),
            (["faults", "nosuch"], "figure"),
            (["wear", "nosuch"], "figure"),
            (["trace", "fig14", "--app", "nosuch"], "--app"),
            (["wear", "fig12", "--app", "nosuch"], "--app"),
            (["compare", "--app", "nosuch"], "--app"),
            (["run", "fig2", "--apps", "lbm,nosuch"], "--apps"),
            (["timeline", "fig12", "--apps", "nosuch"], "--apps"),
            (["faults", "system", "--apps", "nosuch"], "--apps"),
            (["trace", "fig14", "--controller", "nosuch"], "--controller"),
            (["wear", "fig12", "--controller", "nosuch"], "--controller"),
            (["timeline", "fig12", "--controller", "nosuch"], "--controller"),
            (["serve", "--controller", "nosuch"], "--controller"),
            (["faults", "system", "--controllers", "dewrite,nosuch"], "--controllers"),
            (["wear", "fig12", "--baseline", "nosuch"], "--baseline"),
            (["timeline", "fig12", "--window-ns", "0"], "--window-ns"),
            (["timeline", "fig12", "--window-ns", "nan"], "--window-ns"),
            (["wear", "fig12", "--rows", "0"], "--rows"),
            (["wear", "fig12", "--cols", "0"], "--cols"),
            (["wear", "fig12", "--regions", "0"], "--regions"),
            (["bench", "--repeats", "0"], "--repeats"),
            (["run", "fig2", "--parallel", "0"], "--parallel"),
            (["run", "fig2", "--job-timeout", "0"], "--job-timeout"),
            (["serve", "--parallel", "-1"], "--parallel"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else value,
    )
    def test_one_usage_line_and_exit_2(self, argv, option, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = captured.err.strip().splitlines()[-1]
        assert error.startswith(f"repro {argv[0]}: error: argument {option}: ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "fig14", "--out"],
            ["trace", "fig14", "--chrome"],
            ["trace", "fig14", "--flamegraph"],
            ["trace", "fig14", "--manifest"],
            ["timeline", "fig12", "--csv"],
            ["timeline", "fig12", "--jsonl"],
            ["timeline", "fig12", "--manifest"],
            ["wear", "fig12", "--csv"],
            ["faults", "system", "--json"],
            ["faults", "system", "--manifest"],
            ["serve", "--json"],
            ["loadgen", "--json"],
            ["check", "--sarif"],
        ],
        ids=" ".join,
    )
    def test_unwritable_output_path_fails_before_the_run(self, argv, capsys):
        # The parent is a regular file: no directory can be made there.
        pathlib.Path("blocker").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "blocker/out.txt", "--accesses", "50"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = captured.err.strip().splitlines()[-1]
        assert error.startswith(f"repro {argv[0]}: error: argument {argv[-1]}: cannot write ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "fig2", "--apps", "lbm", "--no-cache", "--out"],
            ["run", "fig2", "--apps", "lbm", "--no-cache", "--manifest"],
            ["serve", "--tables"],
            ["bench", "--out"],
        ],
        ids=" ".join,
    )
    def test_unwritable_output_dir_fails_before_the_run(self, argv, capsys):
        # Under a regular file no directory (and no file) can be made.
        pathlib.Path("blocker").write_text("")
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "blocker/figs", "--accesses", "50"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        error = captured.err.strip().splitlines()[-1]
        assert error.startswith(f"repro {argv[0]}: error: argument {argv[-1]}: cannot write ")

    def test_output_dir_may_be_missing(self, capsys):
        assert main(["run", "fig2", "--apps", "lbm", "--accesses", "200", "--no-cache",
                     "--out", "new/figs", "--manifest", "new/run.json"]) == 0
        assert pathlib.Path("new/figs/fig2.json").is_file()
        assert pathlib.Path("new/run.json").is_file()
        capsys.readouterr()

    def test_output_path_may_name_a_missing_directory(self, capsys):
        assert main(["wear", "fig12", "--accesses", "200", "--baseline", "none",
                     "--csv", "new/dir/heat.csv"]) == 0
        assert pathlib.Path("new/dir/heat.csv").read_text().strip()
        capsys.readouterr()

    def test_aliases_and_known_names_parse(self):
        from repro.__main__ import _build_parser

        parser = _build_parser()
        args = parser.parse_args(["trace", "fig14", "--app", "mcf", "--controller", "secure-nvm"])
        assert (args.figure, args.app, args.controller) == ("fig14", "mcf", "secure-nvm")
        assert parser.parse_args(["run", "fig14", "fig2", "--apps", "lbm, mcf"]).figures == [
            "fig14", "fig2"
        ]
        assert parser.parse_args(["trace", "--from-jsonl", "t.jsonl"]).figure == ""
        assert parser.parse_args(["wear", "fig12", "--baseline", "none"]).baseline == "none"
        assert parser.parse_args(["timeline", "fig12", "--window-ns", "2e5"]).window_ns == 2e5


class TestTopLevelPackage:
    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"

    def test_public_exports_resolve(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
