"""The drift engine's NaN rule, through each verb that applies it.

NaN on exactly one side is drift; NaN on both sides is equal.
"""

from __future__ import annotations

import pytest

from repro.analysis import compare_tables
from repro.obs.bench import compare_records
from repro.obs.diff import diff_stages

NAN = float("nan")


def table(value: float) -> dict:
    return {"headers": ["app", "speedup"], "rows": [["lbm", value]]}


def stages(p50: float) -> dict:
    return {"write": {"count": 3.0, "p50": p50, "p95": 9.0, "p99": 9.0}}


def bench(best_s: float) -> dict:
    return {"results": {"controller.dewrite": {"best_s": best_s, "ops": 10}}}


#: verb -> whether it reports drift between a reference and a current value.
VERBS = {
    "compare_tables": lambda ref, cur: not compare_tables(table(ref), table(cur)).clean,
    "diff_stages": lambda ref, cur: bool(diff_stages(stages(ref), stages(cur))),
    "compare_records": lambda ref, cur: not compare_records(bench(cur), bench(ref)).ok,
}


@pytest.mark.parametrize(
    "verb, ref, cur, drifts",
    [
        ("compare_tables", 0.0, NAN, True),
        ("compare_tables", NAN, 1.0, True),
        ("compare_tables", NAN, NAN, False),
        ("diff_stages", 5.0, NAN, True),
        ("diff_stages", NAN, NAN, False),
        ("compare_records", 0.01, NAN, True),
        ("compare_records", NAN, 0.01, True),
        ("compare_records", NAN, NAN, False),
    ],
)
def test_nan_on_one_side_drifts_and_on_both_is_equal(verb, ref, cur, drifts):
    assert VERBS[verb](ref, cur) is drifts
