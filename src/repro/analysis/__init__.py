"""Analysis layer: utilization, makespan and campaign comparison reports.

Turns platform profiler traces and campaign results into the quantities the
paper reports:

* :mod:`repro.analysis.utilization` — CPU/GPU utilization percentages and
  timelines (Table I columns, Figs 4 and 5).
* :mod:`repro.analysis.makespan` — execution-time accounting and the
  bootstrap / exec-setup / running phase breakdown (Fig 5 legend).
* :mod:`repro.analysis.comparison` — CONT-V vs IM-RP head-to-head (Table I).
* :mod:`repro.analysis.reporting` — plain-text tables and figure series used
  by the examples and the benchmark harness.
* :mod:`repro.analysis.progress` — sweep progress/throughput snapshots for
  orchestrated (multi-worker) campaigns.
* :mod:`repro.analysis.timeline` — per-worker span timelines, fleet
  utilization and straggler summaries reconstructed from the telemetry
  streams of *real* (non-simulated) multi-worker sweeps.
* :mod:`repro.analysis.scaling` — the scaling-study reduction: the same
  sweep at increasing fleet sizes, reduced to speedup/efficiency/
  utilization per size (the ``orchestrate scale`` table).

No run executes this layer except :mod:`~repro.analysis.progress` (the
orchestration coordinator imports it directly), so every name here resolves
lazily (PEP 562): ``import repro.analysis`` loads none of its modules, and
the first ``repro.analysis.table1`` imports :mod:`~repro.analysis.comparison`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.analysis.utilization": ("UtilizationReport", "utilization_report"),
        "repro.analysis.makespan": ("MakespanReport", "makespan_report"),
        "repro.analysis.comparison": (
            "ProtocolMatrixRow",
            "Table1Row",
            "protocol_matrix",
            "table1",
        ),
        "repro.analysis.progress": ("QueueProgress", "RunInFlight", "format_queue_progress"),
        "repro.analysis.scaling": (
            "ScalingPoint",
            "ScalingStudy",
            "build_scaling_study",
            "format_scaling_table",
        ),
        "repro.analysis.timeline": (
            "FleetTimeline",
            "TimelineEvent",
            "TimelineSpan",
            "WorkerTimeline",
            "fleet_timeline",
            "format_fleet_timeline",
        ),
        "repro.analysis.reporting": (
            "format_iteration_table",
            "format_protocol_matrix",
            "format_table1",
            "format_utilization_table",
            "iteration_series",
        ),
    },
)

__all__ = [
    "UtilizationReport",
    "utilization_report",
    "MakespanReport",
    "makespan_report",
    "table1",
    "Table1Row",
    "protocol_matrix",
    "ProtocolMatrixRow",
    "QueueProgress",
    "RunInFlight",
    "ScalingPoint",
    "ScalingStudy",
    "build_scaling_study",
    "format_queue_progress",
    "format_scaling_table",
    "FleetTimeline",
    "WorkerTimeline",
    "TimelineSpan",
    "TimelineEvent",
    "fleet_timeline",
    "format_fleet_timeline",
    "format_protocol_matrix",
    "format_iteration_table",
    "format_table1",
    "format_utilization_table",
    "iteration_series",
]
