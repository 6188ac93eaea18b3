"""Benchmark harness regenerating every figure of the paper's
evaluation (Section IV); see ``benchmarks/`` for the pytest entry
points, README "Examples and figures" for the CLI, and
``benchmarks/results/`` for the measured artifacts."""

from .figures import (
    fig2_traces,
    fig3_execution_models,
    fig5_mapreduce,
    fig6_cg,
    fig7_pcomm,
    fig8_pio,
    fig_placement,
    fig_recovery,
)
from .harness import (
    DEFAULT_POINTS,
    Series,
    render_table,
    save_artifact,
    scale_points,
)
from .perf import (
    SCENARIOS as PERF_SCENARIOS,
    PerfError,
    PerfRecord,
    check_golden,
    run_scenario,
    run_suite,
    verify_against_oracle,
)

__all__ = [
    "DEFAULT_POINTS", "PERF_SCENARIOS", "PerfError", "PerfRecord", "Series",
    "check_golden", "fig2_traces", "fig3_execution_models", "fig5_mapreduce",
    "fig6_cg", "fig7_pcomm", "fig8_pio", "fig_placement", "fig_recovery",
    "render_table", "run_scenario", "run_suite",
    "save_artifact", "scale_points", "verify_against_oracle",
]
