"""Evaluation harness: one runner per table/figure of the paper.

:mod:`repro.analysis.experiments` exposes a function per evaluation
artifact (Fig. 2 through Fig. 21, Table I, §IV-E1) returning a
:class:`repro.analysis.reporting.Table` whose rows mirror what the paper
plots; the benchmark suite calls these and prints them.
:class:`ExperimentSettings` scales everything (trace length, app subset)
so smoke tests and full runs share one code path.
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.analysis.experiments import (
    ComparisonResult,
    ExperimentSettings,
    bit_flip_comparison,
    collision_survey,
    duplication_survey,
    evaluate_all,
    integration_mode_comparison,
    metadata_cache_sweep,
    prediction_accuracy_survey,
    reference_count_survey,
    related_work_comparison,
    run_app_comparison,
    storage_overhead_table,
    system_comparison_table,
    table1_detection_latency,
    traditional_dedup_comparison,
    worst_case_comparison,
    write_reduction_survey,
)
from repro.analysis.registry import (
    ExperimentSpec,
    all_experiments,
    experiment,
    experiment_ids,
    plan_for,
    register_experiment,
)
from repro.analysis.reporting import Table

#: Optional export -> defining module, loaded on first use (PEP 562): a run
#: plans and renders tables, but charts, JSON export and table regression
#: belong to the verbs that ask for them.
_EXPORTS = {
    "render_bar_chart": "charts",
    "dump_json": "export",
    "load_json": "export",
    "report_to_dict": "export",
    "table_to_dict": "export",
    "RegressionReport": "repro.obs.drift",
    "compare_tables": "repro.obs.drift",
}

__all__ = [
    "ExperimentSettings",
    "ComparisonResult",
    "Table",
    "duplication_survey",
    "prediction_accuracy_survey",
    "table1_detection_latency",
    "collision_survey",
    "reference_count_survey",
    "evaluate_all",
    "run_app_comparison",
    "system_comparison_table",
    "bit_flip_comparison",
    "integration_mode_comparison",
    "worst_case_comparison",
    "metadata_cache_sweep",
    "storage_overhead_table",
    "write_reduction_survey",
    "traditional_dedup_comparison",
    "related_work_comparison",
    "ExperimentSpec",
    "register_experiment",
    "experiment",
    "experiment_ids",
    "all_experiments",
    "plan_for",
    "render_bar_chart",
    "table_to_dict",
    "report_to_dict",
    "dump_json",
    "load_json",
    "compare_tables",
    "RegressionReport",
]

__getattr__ = lazy_exports(__name__, _EXPORTS)
