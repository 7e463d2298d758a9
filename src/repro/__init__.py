"""repro — reproduction of "Adaptive Protein Design Protocols and Middleware".

The package re-implements the IMPRESS framework described in the paper:
adaptive protein-design pipelines (ProteinMPNN -> ranking -> AlphaFold ->
scoring -> accept/reject) coordinated over a RADICAL-Pilot-style runtime, on
a simulated HPC platform, together with the non-adaptive control baseline
and the full evaluation harness (Table I, Figs 2-5).

Quick start::

    from repro import CampaignConfig, DesignCampaign, named_pdz_targets

    targets = named_pdz_targets(seed=7)
    result = DesignCampaign(targets, CampaignConfig(protocol="im-rp", seed=7)).run()
    print(result.table_row())

Sub-packages
------------
``repro.core``
    The paper's contribution: pipelines, coordinator, adaptive decisions,
    control baseline, campaigns and results.
``repro.runtime``
    The pilot-job middleware substrate (pilot/task managers, agent, states).
``repro.hpc``
    The discrete-event HPC platform (resources, scheduler, filesystem,
    profiler).
``repro.protein``
    The protein-design application substrate (sequences, structures,
    surrogate ProteinMPNN/AlphaFold, datasets).
``repro.analysis``
    Utilization/makespan reports and the Table-I comparison.
``repro.experiments``
    Declarative sweeps (protocols x seeds x knobs) and the parallel
    campaign-suite engine (``python -m repro.experiments``).

Every name in ``__all__`` resolves lazily (PEP 562, :mod:`repro._lazy`):
``import repro`` loads no sub-package, and the first ``repro.DesignCampaign``
imports :mod:`repro.core.campaign`.  A process that runs campaigns imports
the sub-packages it uses directly, and those import their run-path modules
eagerly, so nothing is imported once a run has started.  Sub-packages are
imported explicitly (``import repro.core``), as with any package.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.campaign": ("CampaignConfig", "DesignCampaign"),
        "repro.core.results": ("CampaignResult", "compare_campaigns"),
        "repro.core.pipeline": ("Pipeline", "PipelineConfig"),
        "repro.core.coordinator": ("CoordinatorConfig", "PipelinesCoordinator"),
        "repro.core.control": ("ControlConfig", "ControlProtocol"),
        "repro.core.protocols": (
            "ExecutionProtocol",
            "available_protocols",
            "get_protocol",
            "register_protocol",
        ),
        "repro.experiments": ("CampaignSuite", "SuiteResult", "SweepSpec", "TargetSpec"),
        "repro.protein.datasets": (
            "ALPHA_SYNUCLEIN_C4",
            "ALPHA_SYNUCLEIN_C10",
            "DesignTarget",
            "expanded_pdz_set",
            "make_pdz_target",
            "named_pdz_targets",
        ),
        "repro.analysis.comparison": ("table1",),
        "repro.analysis.reporting": ("format_iteration_table", "format_table1"),
    },
)

__all__ = [
    "CampaignConfig",
    "DesignCampaign",
    "CampaignResult",
    "compare_campaigns",
    "Pipeline",
    "PipelineConfig",
    "CoordinatorConfig",
    "PipelinesCoordinator",
    "ControlConfig",
    "ControlProtocol",
    "ExecutionProtocol",
    "available_protocols",
    "get_protocol",
    "register_protocol",
    "CampaignSuite",
    "SuiteResult",
    "SweepSpec",
    "TargetSpec",
    "DesignTarget",
    "make_pdz_target",
    "named_pdz_targets",
    "expanded_pdz_set",
    "ALPHA_SYNUCLEIN_C4",
    "ALPHA_SYNUCLEIN_C10",
    "table1",
    "format_iteration_table",
    "format_table1",
    "__version__",
]
