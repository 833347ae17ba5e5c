"""`repro serve` / `repro loadgen`: a bad config is a typed error, not a traceback."""

from __future__ import annotations

import pytest

from repro.__main__ import main


@pytest.mark.parametrize(
    "argv, message",
    [
        (["serve", "--shards", "0"], "serve: shards must be positive"),
        (["serve", "--tenants", "0"], "serve: tenants must be positive"),
        (["serve", "--quota", "-1"], "serve: tenant_quota must be non-negative"),
        (["loadgen", "--overlap", "1.5"], "loadgen: content_overlap must be in [0, 1]"),
    ],
)
def test_bad_config_exits_2_with_one_line(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(message)
    assert "Traceback" not in captured.err
    assert captured.out == ""
