"""Tests for the execution-protocol registry and the refactored protocols.

The golden tests pin the exact numbers the pre-refactor ``DesignCampaign``
branches (`_run_adaptive` / `_run_control`) produced for seeded runs, so the
registry refactor is provably behaviour-preserving.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.protocols import (
    ExecutionProtocol,
    ProtocolOutcome,
    available_protocols,
    get_protocol,
    register_protocol,
    unregister_protocol,
)
from repro.exceptions import CampaignError
from repro.experiments.spec import TargetSpec
from repro.store.fingerprint import canonical_json
from repro.utils.serialization import to_jsonable

#: Exact fingerprints captured from the pre-refactor if/else implementation
#: (commit 16c280d) for named_pdz_targets(seed=11), n_cycles=2, n_sequences=6.
GOLDEN = {
    ("im-rp", 13): {
        "approach": "IM-RP",
        "n_pipelines": 4,
        "n_subpipelines": 8,
        "n_trajectories": 22,
        "makespan_hours": 12.749651921756888,
        "total_task_hours": 39.804923368901875,
        "cpu_utilization": 0.5596410505025873,
        "gpu_utilization": 0.3329328115529481,
        "net_deltas": {
            "plddt": 22.614511347366456,
            "ptm": 39.26193333555688,
            "interchain_pae": -33.498080315724025,
        },
    },
    ("cont-v", 13): {
        "approach": "CONT-V",
        "n_pipelines": 1,
        "n_subpipelines": 0,
        "n_trajectories": 8,
        "makespan_hours": 15.236887474494477,
        "total_task_hours": 15.236887474494477,
        "cpu_utilization": 0.17579700078697758,
        "gpu_utilization": 0.11146490433301147,
        "net_deltas": {
            "plddt": 6.09748134603556,
            "ptm": -1.0466735729598744,
            "interchain_pae": -2.2522072890049367,
        },
    },
    ("im-rp", 5): {
        "approach": "IM-RP",
        "n_pipelines": 4,
        "n_subpipelines": 8,
        "n_trajectories": 20,
        "makespan_hours": 16.379046283789645,
        "total_task_hours": 37.5069728376449,
        "cpu_utilization": 0.4131043564550126,
        "gpu_utilization": 0.2431282202339574,
        "net_deltas": {
            "plddt": 20.41534654892899,
            "ptm": 47.300614434383235,
            "interchain_pae": -43.91053745216929,
        },
    },
    ("cont-v", 5): {
        "approach": "CONT-V",
        "n_pipelines": 1,
        "n_subpipelines": 0,
        "n_trajectories": 8,
        "makespan_hours": 14.976594591092145,
        "total_task_hours": 14.976594591092145,
        "cpu_utilization": 0.17725109439430836,
        "gpu_utilization": 0.10942909968719115,
        "net_deltas": {
            "plddt": 1.736867308794284,
            "ptm": 10.693574576374438,
            "interchain_pae": -8.161327867255686,
        },
    },
}

#: sha256 of the canonical ``as_dict()`` JSON of a 16-target expanded-pdz
#: IM-RP campaign (seed 7, n_cycles=2, n_sequences=6), captured before the
#: composite score was cached.  Sixteen roots spawn 20 sub-pipelines, 19 of
#: them through the below-cohort-median rule, so this pins the cohort
#: decision path at a scale the four-target goldens above do not reach.
MANY_PIPELINE_GOLDEN = "686e9de926e52d413c171888bdce6d72b6010204373edba39c5e7cd882f40bba"


class TestRegistry:
    def test_builtin_protocols_registered(self):
        assert {"im-rp", "cont-v", "im-rp-random", "cont-v-ranked"} <= set(
            available_protocols()
        )

    def test_unknown_protocol_raises(self):
        with pytest.raises(CampaignError, match="unknown protocol"):
            get_protocol("no-such-protocol")

    def test_unknown_protocol_rejected_at_config_construction(self):
        with pytest.raises(CampaignError, match="unknown protocol"):
            CampaignConfig(protocol="no-such-protocol")

    def test_registration_round_trip(self):
        class EchoProtocol(ExecutionProtocol):
            name = "test-echo"
            approach = "ECHO"

            def execute(self, context):  # pragma: no cover - never driven
                return ProtocolOutcome(records=[], platform=None)

        try:
            registered = register_protocol(EchoProtocol)
            assert registered is EchoProtocol
            assert "test-echo" in available_protocols()
            assert isinstance(get_protocol("test-echo"), EchoProtocol)
            # Idempotent for the same class.
            register_protocol(EchoProtocol)
            # A config naming the plugin now validates.
            assert CampaignConfig(protocol="test-echo").protocol == "test-echo"
        finally:
            unregister_protocol("test-echo")
        assert "test-echo" not in available_protocols()

    def test_duplicate_name_rejected(self):
        class FirstProtocol(ExecutionProtocol):
            name = "test-dup"
            approach = "A"

            def execute(self, context):  # pragma: no cover
                raise NotImplementedError

        class SecondProtocol(ExecutionProtocol):
            name = "test-dup"
            approach = "B"

            def execute(self, context):  # pragma: no cover
                raise NotImplementedError

        try:
            register_protocol(FirstProtocol)
            with pytest.raises(CampaignError, match="already registered"):
                register_protocol(SecondProtocol)
        finally:
            unregister_protocol("test-dup")

    def test_invalid_registrations_rejected(self):
        with pytest.raises(CampaignError):
            register_protocol(object)  # not an ExecutionProtocol

        class NamelessProtocol(ExecutionProtocol):
            approach = "X"

            def execute(self, context):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(CampaignError, match="name"):
            register_protocol(NamelessProtocol)


class TestConfigValidation:
    def test_scheduler_policy_validated_at_construction(self):
        with pytest.raises(CampaignError, match="scheduler_policy"):
            CampaignConfig(scheduler_policy="round-robin")

    def test_msa_mode_validated_at_construction(self):
        with pytest.raises(CampaignError, match="msa_mode"):
            CampaignConfig(msa_mode="no_msa")

    def test_valid_values_accepted(self):
        config = CampaignConfig(scheduler_policy="backfill", msa_mode="single_sequence")
        assert config.scheduler_policy == "backfill"
        assert config.msa_mode == "single_sequence"


@pytest.mark.parametrize("protocol,seed", sorted(GOLDEN))
def test_golden_equivalence_with_pre_refactor_branches(four_targets, protocol, seed):
    """Registry-dispatched runs reproduce the pre-refactor results exactly."""
    config = CampaignConfig(protocol=protocol, n_cycles=2, n_sequences=6, seed=seed)
    result = DesignCampaign(four_targets, config).run()
    want = GOLDEN[(protocol, seed)]
    assert result.approach == want["approach"]
    assert result.protocol == protocol
    assert result.n_pipelines == want["n_pipelines"]
    assert result.n_subpipelines == want["n_subpipelines"]
    assert result.n_trajectories == want["n_trajectories"]
    exact = pytest.approx(want["makespan_hours"], rel=0, abs=0)
    assert result.makespan_hours == exact
    assert result.total_task_hours == pytest.approx(want["total_task_hours"], rel=0, abs=0)
    assert result.cpu_utilization == pytest.approx(want["cpu_utilization"], rel=0, abs=0)
    assert result.gpu_utilization == pytest.approx(want["gpu_utilization"], rel=0, abs=0)
    deltas = result.net_deltas()
    for metric, value in want["net_deltas"].items():
        assert deltas[metric] == pytest.approx(value, rel=0, abs=0), metric


def test_many_pipeline_golden():
    targets = TargetSpec(kind="expanded-pdz", n_targets=16, seed=7).build()
    config = CampaignConfig(protocol="im-rp", n_cycles=2, n_sequences=6, seed=7)
    result = DesignCampaign(targets, config).run()
    assert (result.n_pipelines, result.n_subpipelines) == (16, 20)
    payload = canonical_json(to_jsonable(result.as_dict()))
    assert hashlib.sha256(payload.encode()).hexdigest() == MANY_PIPELINE_GOLDEN


class TestNewProtocols:
    def test_im_rp_random_runs_on_pilot_runtime(self, four_targets):
        config = CampaignConfig(
            protocol="im-rp-random", n_cycles=1, n_sequences=4, seed=3
        )
        result = DesignCampaign(four_targets, config).run()
        assert result.approach == "IM-RP-RAND"
        assert result.protocol == "im-rp-random"
        assert result.n_pipelines == 4  # one concurrent root pipeline per target
        assert result.n_trajectories >= 4

    def test_cont_v_ranked_differs_from_cont_v(self, four_targets):
        ranked = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="cont-v-ranked", n_cycles=2, n_sequences=6, seed=3),
        ).run()
        control = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="cont-v", n_cycles=2, n_sequences=6, seed=3),
        ).run()
        assert ranked.approach == "CONT-V-RANK"
        # Same sequential execution model (identical simulated durations) ...
        assert ranked.n_pipelines == control.n_pipelines == 1
        assert ranked.n_trajectories == control.n_trajectories
        # ... but ranked selection evaluates different sequences.
        assert ranked.net_deltas() != control.net_deltas()

    def test_im_rp_random_differs_from_im_rp(self, four_targets):
        random_result = DesignCampaign(
            four_targets,
            CampaignConfig(protocol="im-rp-random", n_cycles=2, n_sequences=6, seed=13),
        ).run()
        adaptive = GOLDEN[("im-rp", 13)]
        assert random_result.net_deltas() != adaptive["net_deltas"]
