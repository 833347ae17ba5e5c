"""Byte-identity contract for every controller's simulated output.

Two goldens pin what the controllers produce, so a refactor of any
request pipeline (fused kernel, one-request entry, observation hooks)
must reproduce them exactly:

- **reports** — the serialised :class:`~repro.system.metrics.SimulationReport`
  of every registered controller, plus a few configurations that reach the
  rarer pipeline arms (split-counter overflow, i-NVMM cold lines, frequent
  out-of-line scans, counter-cache writebacks), on a single-stream trace
  (``lbm``), a 4-stream trace (``canneal``) and a zero- and duplicate-heavy
  trace (``sjeng``).  DeWrite's extra configurations reach its
  write-through and periodic metadata persistence and its metadata-cache
  evictions.  One JSON file per application under ``fixtures/reports/``.
- **traces** — ``repro trace`` on the CME-family and DeWrite-family
  controllers: the printed stage table (``fixtures/traces/``) and a sha256
  over every span record with its host-clock ``wall_ns`` removed; the
  extra configurations' span records are pinned the same way.

Rewrite the fixtures with ``PYTHONPATH=src python -m
tests.system.test_controller_goldens --write`` (it prints the trace
digests to paste into :data:`TRACE_DIGESTS`), only for a change that is
meant to alter simulated results.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

import pytest

from repro.__main__ import main
from repro.core.registry import available_controllers, build_controller
from repro.nvm.memory import NvmMainMemory
from repro.obs.trace import Tracer
from repro.runner.jobs import trace_for
from repro.system.simulator import simulate

FIXTURES = Path(__file__).parent / "fixtures"

REPORT_APPS = ("lbm", "canneal", "sjeng")
REPORT_ACCESSES = 1_500
SEED = 1

#: Extra configurations, keyed ``name[label]``, that reach pipeline arms
#: the registered defaults never hit at this scale.
EXTRA_CASES: dict[str, tuple[str, dict[str, Any]]] = {
    "secure-nvm[split]": (
        "secure-nvm",
        {"use_split_counters": True, "minor_counter_bits": 1, "lines_per_page": 64},
    ),
    "secure-nvm[tiny-cache]": ("secure-nvm", {"counter_cache_bytes": 2_048}),
    "silent-shredder[tiny-cache]": ("silent-shredder", {"counter_cache_bytes": 2_048}),
    "i-nvmm[hot16]": ("i-nvmm", {"hot_set_lines": 16, "counter_cache_bytes": 2_048}),
    "out-of-line[scan16]": ("out-of-line", {"scan_interval_writes": 16, "lines_per_page": 2}),
    "dewrite[write-through]": ("dewrite", {"persistence": {"policy": "write_through"}}),
    "dewrite[periodic]": (
        "dewrite",
        {"persistence": {"policy": "periodic_writeback", "writeback_interval_ns": 5_000.0}},
    ),
    "dewrite[tiny-cache]": (
        "dewrite",
        {
            "metadata_cache": {
                "hash_cache_bytes": 2_048,
                "address_map_cache_bytes": 4_096,
                "inverted_hash_cache_bytes": 4_096,
                "fsm_cache_bytes": 256,
            }
        },
    ),
}

TRACE_APPS = ("sjeng", "canneal")
TRACE_ACCESSES = 600
TRACE_CONTROLLERS = (
    "secure-nvm",
    "silent-shredder",
    "i-nvmm",
    "out-of-line",
    "dewrite",
    "direct",
    "parallel",
    "traditional-dedup",
)

TRACE_DIGESTS: dict[str, str] = {
    "secure-nvm/sjeng": "25f3edad482e618e11118cbdf438bad868f7bdfa15b2875f347bc7f35b9edb9f",
    "silent-shredder/sjeng": "b955b1be66ede8e9028ad37afedf6eb91d918c0a78bb3eb06f97e03f38802c97",
    "i-nvmm/sjeng": "6c489f06063679e99683d36dded7ba692029f3515244a3c10853034bc818ee96",
    "out-of-line/sjeng": "d71ae2c73fa5b7719f283169cba4615920d44b93f07d4aa5c52955a478c0a4c3",
    "dewrite/sjeng": "82ca7e9b31258f3bc10da050327b53b8f716e66587a7ff3bbf7970a3398a1054",
    "direct/sjeng": "a28a0e45f08eb3269a42a9592de02b53d6f5054a49ea421df939a35c8b6c9846",
    "parallel/sjeng": "186694b65dfc5c9a84de28d26f32efe99ffdb76bccc1257c51c6e431f0866d5c",
    "traditional-dedup/sjeng": "4e6800301e083f0cd9f01305d4e9084b681f8f32adba775038cd94bdfd266822",
    "secure-nvm/canneal": "eff905502e10f5f5c8f92a34be66b1617689df003e2061a5227c42aab34c6ec7",
    "silent-shredder/canneal": "4d1893ad2eac63f122190861cc7c98ad27ad60957077df16d1aa47ced65a5b76",
    "i-nvmm/canneal": "d03e7586a520b424e76addba655d93fd9bd789a3ceee4c88a533575216d35e25",
    "out-of-line/canneal": "f86acb0b74b2dc07b2a421d76e5015d3fce9a32fe0158ba64db699cc58dba7ce",
    "dewrite/canneal": "28efd88141124e9d03547ee907f814bd6201cdc0be6ebd3ba5cb99d1a7c8f5c9",
    "direct/canneal": "92da6232c8897e31d4d93fc489b6e792c3ddac7fd01b34fc90180373afdd241b",
    "parallel/canneal": "9abb16b149d7fc4082ef6bdd4e429e2d4dc927bb206905811b6e233f67d7f37a",
    "traditional-dedup/canneal": "d23f3d604792bf39488ee0895b282956963efcbf2f6c6252d56bb3b26cc965b0",
    "dewrite[periodic]/sjeng": "f21cb7ce3db1f090c19dede8daea8005dc4ed2f5f71d349e4d4fb94fe7b76c87",
    "dewrite[tiny-cache]/sjeng": "04c474699ac731e1892dc9a221831c2738c9fd6f4e20760c20ae53686694c1b5",
    "dewrite[write-through]/sjeng": "9400b69d3ab4e8d6111820b5e5b79c58d84aa7353e75b3590eeb141ed45ebc84",
    "i-nvmm[hot16]/sjeng": "e755ae812a3f18c16fa42eabdfe1e3f8a2ebb1ddb994c8b885aff48ad5980386",
    "out-of-line[scan16]/sjeng": "b63bae95bb95fad453db8cdef01abcb0dfd0dcb95c91e826685ff69c96737af5",
    "secure-nvm[split]/sjeng": "6b1357396061c8c7de34c1e0c51a3d56c6ae671faaf6de1a020f88aaefc399c4",
    "secure-nvm[tiny-cache]/sjeng": "fc507370cf725a4b7089c26ff4b78eef9916ffada9cad837f8e4cbaccbd0d19f",
    "silent-shredder[tiny-cache]/sjeng": "82c89b089854061486b9337c8004d83c3b1fd49b7ca91befe3115f343511047a",
    "dewrite[periodic]/canneal": "d0767e29f6e50865716a633fc88597d45447d107d182f75e31e65372cb1d1bfd",
    "dewrite[tiny-cache]/canneal": "a9fdb4f1cf94703af2686f027be41d786d963b26e045a21687a1e27c441eba3b",
    "dewrite[write-through]/canneal": "f15d225181309553fd0e0b8e3d077eb33212f687bd510b79f92139cc74664922",
    "i-nvmm[hot16]/canneal": "222f72832b4f09a157e1ac8e0c360c764f0e35e0673ed439ba7677726141408b",
    "out-of-line[scan16]/canneal": "a5d1a0c021881184f0a8c61071ad033706e19d0840e20f856ba8df47f520eaee",
    "secure-nvm[split]/canneal": "c13135312bba3431141d1d4470564f19e9d28734e20c4e1f0cbb40655a5a5b30",
    "secure-nvm[tiny-cache]/canneal": "3e41e79e3a574a360273866a67c29347a1f6753ee1f55d0ab3c04e9e71dd5bad",
    "silent-shredder[tiny-cache]/canneal": "20f64b3a836a0f268cdff00f7857e1b97d4d797382b5cfde2b3b0e60a08e6411",
}


def report_cases() -> dict[str, tuple[str, dict[str, Any]]]:
    cases = {name: (name, {}) for name in available_controllers()}
    cases.update(EXTRA_CASES)
    return cases


def report_payload(app: str) -> str:
    """Every case's report on ``app``, as the fixture's exact text."""
    trace = trace_for(app, REPORT_ACCESSES, SEED)
    reports = {
        case: simulate(build_controller(name, NvmMainMemory(), **opts), trace).to_dict()
        for case, (name, opts) in sorted(report_cases().items())
    }
    return json.dumps(reports, sort_keys=True, indent=1) + "\n"


def records_digest(records: list[dict[str, Any]]) -> str:
    """sha256 over trace records with the host-clock ``wall_ns`` removed."""
    digest = hashlib.sha256()
    for record in records:
        stripped = {key: value for key, value in record.items() if key != "wall_ns"}
        digest.update(json.dumps(stripped, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def traced(app: str, controller: str, out: Path) -> str:
    """Run ``repro trace``; returns the digest of its JSONL records."""
    code = main([
        "trace", "system", "--app", app, "--accesses", str(TRACE_ACCESSES),
        "--seed", str(SEED), "--controller", controller, "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    return records_digest([json.loads(line) for line in lines])


def traced_case(app: str, case: str) -> str:
    """Digest of an extra configuration's span records on ``app``."""
    name, opts = EXTRA_CASES[case]
    tracer = Tracer(sink=None)
    controller = build_controller(name, NvmMainMemory(), tracer=tracer, **opts)
    simulate(controller, trace_for(app, TRACE_ACCESSES, SEED))
    return records_digest(tracer.records)


def trace_key(app: str, controller: str) -> str:
    return f"{controller}/{app}"


@pytest.mark.parametrize("app", REPORT_APPS)
def test_reports_match_golden(app):
    expected = (FIXTURES / "reports" / f"{app}.json").read_text(encoding="utf-8")
    assert report_payload(app) == expected


@pytest.mark.parametrize("app", TRACE_APPS)
@pytest.mark.parametrize("controller", TRACE_CONTROLLERS)
def test_trace_records_and_table_match_golden(app, controller, tmp_path, capsys):
    out = tmp_path / "trace.jsonl"
    capsys.readouterr()
    digest = traced(app, controller, out)
    table = capsys.readouterr().out.replace(str(out), "<out>")
    key = trace_key(app, controller)
    expected = (FIXTURES / "traces" / f"{controller}-{app}.txt").read_text(encoding="utf-8")
    assert table == expected
    assert digest == TRACE_DIGESTS[key]


@pytest.mark.parametrize("app", TRACE_APPS)
@pytest.mark.parametrize("case", sorted(EXTRA_CASES))
def test_traced_extra_case_records_match_golden(app, case):
    assert traced_case(app, case) == TRACE_DIGESTS[trace_key(app, case)]


def _write_fixtures() -> None:  # pragma: no cover - maintenance entry point
    import contextlib
    import io
    import tempfile

    (FIXTURES / "reports").mkdir(parents=True, exist_ok=True)
    (FIXTURES / "traces").mkdir(parents=True, exist_ok=True)
    for app in REPORT_APPS:
        (FIXTURES / "reports" / f"{app}.json").write_text(report_payload(app), encoding="utf-8")
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "trace.jsonl"
        for app in TRACE_APPS:
            for controller in TRACE_CONTROLLERS:
                buffer = io.StringIO()
                with contextlib.redirect_stdout(buffer):
                    digest = traced(app, controller, out)
                table = buffer.getvalue().replace(str(out), "<out>")
                (FIXTURES / "traces" / f"{controller}-{app}.txt").write_text(
                    table, encoding="utf-8"
                )
                digests[trace_key(app, controller)] = digest
    for app in TRACE_APPS:
        for case in sorted(EXTRA_CASES):
            digests[trace_key(app, case)] = traced_case(app, case)
    for key, digest in digests.items():
        sys.stdout.write(f'    "{key}": "{digest}",\n')


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] == ["--write"]:
        _write_fixtures()
    else:
        sys.exit("usage: python -m tests.system.test_controller_goldens --write")
