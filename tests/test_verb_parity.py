"""Parity goldens of the figure-table and stage-profile views.

A figure table's stdout and its JSON export are pinned byte for byte
under ``fixtures/verb_parity/``, and so are, for every registered
controller, the stage profile of a fig14 run (collapsed-stack flamegraph
and the manifest's ``stages`` section) and ``trace``'s per-stage
percentile table.  Rewrite them with
``PYTHONPATH=src python -m tests.test_verb_parity`` only for a change
meant to alter simulated results.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core.registry import available_controllers

FIXTURES = Path(__file__).parent / "fixtures" / "verb_parity"

#: figure id -> settings arguments
FIGURES = {
    "fig2": ["--apps", "mcf,vips", "--accesses", "2000"],
    "storage": [],
    "system": ["--apps", "lbm,mcf", "--accesses", "2000"],
}

STAGE_PROFILE = ["fig14", "--accesses", "2000"]


def _call(argv: list[str]) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    assert code == 0, argv
    return out.getvalue()


def figure_outputs(figure_id: str, workdir: Path) -> tuple[str, str]:
    """(stdout, JSON export) of one figure table, from ``run --out``."""
    with contextlib.redirect_stderr(io.StringIO()):
        stdout = _call(["run", figure_id, *FIGURES[figure_id], "--no-cache",
                        "--no-manifest", "--out", str(workdir)])
    return stdout, (workdir / f"{figure_id}.json").read_text(encoding="utf-8")


def stage_profile(controller: str, workdir: Path) -> dict:
    """Flamegraph lines and manifest ``stages`` section of one controller."""
    folded = workdir / f"{controller}.folded"
    manifest = workdir / f"{controller}.manifest.json"
    with contextlib.redirect_stderr(io.StringIO()):
        _call(["trace", *STAGE_PROFILE, "--controller", controller,
               "--flamegraph", str(folded), "--manifest", str(manifest)])
    return {
        "flamegraph": folded.read_text(encoding="utf-8"),
        "stages": json.loads(manifest.read_text(encoding="utf-8"))["stages"],
    }


def trace_table(controller: str) -> str:
    """The per-stage percentile table ``trace`` prints."""
    return _call(["trace", *STAGE_PROFILE, "--controller", controller])


def golden(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def _reset_provider():
    yield
    from repro.runner import provider

    provider.reset()


@pytest.mark.parametrize("figure_id", sorted(FIGURES))
def test_figure_table_matches_golden(figure_id, tmp_path):
    stdout, export = figure_outputs(figure_id, tmp_path)
    assert stdout == golden(f"{figure_id}.txt")
    assert export == golden(f"{figure_id}.json")


@pytest.mark.parametrize("controller", sorted(available_controllers()))
def test_stage_profile_matches_golden(controller, tmp_path):
    expected = json.loads(golden("stage_profiles.json"))[controller]
    assert stage_profile(controller, tmp_path) == expected


@pytest.mark.parametrize("controller", sorted(available_controllers()))
def test_trace_table_matches_golden(controller):
    expected = json.loads(golden("trace_tables.json"))[controller]
    assert trace_table(controller) == expected


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        workdir = Path(scratch)
        for figure_id in FIGURES:
            stdout, export = figure_outputs(figure_id, workdir)
            (FIXTURES / f"{figure_id}.txt").write_text(stdout, encoding="utf-8")
            (FIXTURES / f"{figure_id}.json").write_text(export, encoding="utf-8")
        profiles = {
            name: stage_profile(name, workdir) for name in sorted(available_controllers())
        }
    tables = {name: trace_table(name) for name in sorted(available_controllers())}
    for name, payload in (("stage_profiles.json", profiles), ("trace_tables.json", tables)):
        (FIXTURES / name).write_text(
            json.dumps(payload, indent=1, sort_keys=True) + "\n", encoding="utf-8"
        )
    print(f"wrote goldens to {FIXTURES}", file=sys.stderr)
