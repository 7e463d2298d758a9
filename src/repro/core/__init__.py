"""IMPRESS core: adaptive protein-design pipelines, coordinator and campaigns.

This package is the paper's primary contribution re-implemented:

* :mod:`repro.core.trajectory` — trajectory and cycle records (one trajectory
  = one structure-prediction evaluation, the unit Table I counts).
* :mod:`repro.core.stages` — the six pipeline stages of Fig 1 as task
  factories over the protein surrogates.
* :mod:`repro.core.pipeline` — the :class:`Pipeline` state machine binding
  stages into the iterative design cycle with adaptive accept/reject and
  next-ranked-sequence fallback.
* :mod:`repro.core.decision` — acceptance and sub-pipeline spawn policies.
* :mod:`repro.core.coordinator` — the pipelines coordinator: concurrent
  submission, monitoring, global quality view, adaptive sub-pipeline
  generation (IM-RP).
* :mod:`repro.core.control` — the non-adaptive sequential control (CONT-V).
* :mod:`repro.core.protocols` — the pluggable execution-protocol abstraction
  and string-keyed registry ("im-rp", "cont-v", ablations, plugins).
* :mod:`repro.core.campaign` — :class:`DesignCampaign`, the top-level public
  API running any registered protocol end-to-end on a simulated platform.
* :mod:`repro.core.results` — campaign results and Table-I-style summaries.
* :mod:`repro.core.genetic` — the genetic-algorithm framing exposed for
  extension (population, selection, recombination).

No protocol runs the genetic optimizer, so its names resolve lazily
(PEP 562, :mod:`repro._lazy`); every other module here is on the run path and
is imported eagerly.
"""

from repro.core.trajectory import Trajectory, CycleResult
from repro.core.stages import StageFactory, StageModels
from repro.core.pipeline import Pipeline, PipelineConfig, PipelineStatus, PipelineStep
from repro.core.decision import (
    AcceptancePolicy,
    SubPipelinePolicy,
    SubPipelineSpec,
)
from repro.core.coordinator import CoordinatorConfig, PipelinesCoordinator
from repro.core.control import ControlProtocol, ControlConfig
from repro.core.protocols import (
    ExecutionProtocol,
    ProtocolContext,
    ProtocolOutcome,
    available_protocols,
    get_protocol,
    register_protocol,
    unregister_protocol,
)
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.results import CampaignResult, PipelineRecord, compare_campaigns
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    globals(),
    {"repro.core.genetic": ("GeneticConfig", "GeneticOptimizer", "Individual")},
)

__all__ = [
    "Trajectory",
    "CycleResult",
    "StageFactory",
    "StageModels",
    "Pipeline",
    "PipelineConfig",
    "PipelineStatus",
    "PipelineStep",
    "AcceptancePolicy",
    "SubPipelinePolicy",
    "SubPipelineSpec",
    "CoordinatorConfig",
    "PipelinesCoordinator",
    "ControlProtocol",
    "ControlConfig",
    "ExecutionProtocol",
    "ProtocolContext",
    "ProtocolOutcome",
    "available_protocols",
    "get_protocol",
    "register_protocol",
    "unregister_protocol",
    "CampaignConfig",
    "DesignCampaign",
    "CampaignResult",
    "PipelineRecord",
    "compare_campaigns",
    "GeneticConfig",
    "GeneticOptimizer",
    "Individual",
]
