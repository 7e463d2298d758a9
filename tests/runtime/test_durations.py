"""Tests for the task duration model."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.hpc.filesystem import SharedFilesystem
from repro.hpc.resources import ResourceRequest
from repro.runtime.durations import DurationModel, KindProfile, TaskKind, default_request
from repro.runtime.task import TaskDescription


def _description(kind: TaskKind, name: str = "t", **metadata) -> TaskDescription:
    model = DurationModel()
    return TaskDescription(
        name=name, kind=kind.value, request=model.request_for(kind), metadata=metadata
    )


class TestDefaultProfiles:
    def test_msa_is_the_longest_phase(self):
        model = DurationModel()
        msa = model.duration(_description(TaskKind.AF_MSA, "msa"))
        inference = model.duration(_description(TaskKind.AF_INFERENCE, "inf"))
        mpnn = model.duration(_description(TaskKind.MPNN_GENERATE, "gen"))
        rank = model.duration(_description(TaskKind.SEQUENCE_RANK, "rank"))
        assert msa > inference > mpnn > rank

    def test_msa_is_cpu_only_and_inference_uses_gpu(self):
        assert default_request(TaskKind.AF_MSA).gpus == 0
        assert default_request(TaskKind.AF_MSA).cpu_cores >= 4
        assert default_request(TaskKind.AF_INFERENCE).gpus == 1
        assert default_request(TaskKind.MPNN_GENERATE).gpus == 1

    def test_unknown_kind_falls_back_to_generic(self):
        model = DurationModel()
        description = TaskDescription(
            name="weird", kind="not-a-kind", request=ResourceRequest(cpu_cores=1)
        )
        assert model.duration(description) > 0


class TestScaling:
    def test_more_sequences_cost_more(self):
        model = DurationModel()
        small = model.duration(_description(TaskKind.MPNN_GENERATE, "a", n_sequences=1))
        large = model.duration(_description(TaskKind.MPNN_GENERATE, "a", n_sequences=40))
        assert large > small

    def test_longer_proteins_cost_more(self):
        model = DurationModel()
        short = model.duration(_description(TaskKind.AF_INFERENCE, "a", n_residues=80))
        long = model.duration(_description(TaskKind.AF_INFERENCE, "a", n_residues=400))
        assert long > short

    def test_filesystem_io_adds_time_for_msa(self):
        model = DurationModel()
        without_fs = model.duration(_description(TaskKind.AF_MSA, "m"))
        with_fs = model.duration(_description(TaskKind.AF_MSA, "m"), SharedFilesystem())
        assert with_fs > without_fs

    def test_speedup_divides_duration(self):
        slow = DurationModel(seed=1, speedup=1.0)
        fast = DurationModel(seed=1, speedup=100.0)
        description = _description(TaskKind.AF_MSA, "m")
        assert fast.duration(description) == pytest.approx(
            slow.duration(description) / 100.0
        )

    def test_duration_always_positive(self):
        model = DurationModel(speedup=1e9)
        assert model.duration(_description(TaskKind.COMPARE, "c")) > 0


class TestDeterminism:
    def test_same_name_same_duration(self):
        model = DurationModel(seed=3)
        a = model.duration(_description(TaskKind.AF_MSA, "pipeline.c0.msa"))
        b = model.duration(_description(TaskKind.AF_MSA, "pipeline.c0.msa"))
        assert a == b

    def test_different_names_jitter_differently(self):
        model = DurationModel(seed=3)
        a = model.duration(_description(TaskKind.AF_MSA, "task-a"))
        b = model.duration(_description(TaskKind.AF_MSA, "task-b"))
        assert a != b

    def test_seed_changes_jitter(self):
        description = _description(TaskKind.AF_MSA, "same-name")
        assert DurationModel(seed=1).duration(description) != DurationModel(seed=2).duration(description)


class TestValidation:
    def test_invalid_speedup(self):
        with pytest.raises(ConfigurationError):
            DurationModel(speedup=0)

    def test_profile_validation(self):
        with pytest.raises(ConfigurationError):
            KindProfile(base_seconds=-1.0)
        with pytest.raises(ConfigurationError):
            KindProfile(base_seconds=1.0, jitter_sigma=-0.1)

    def test_profile_override(self):
        custom = KindProfile(base_seconds=7.0, jitter_sigma=0.0)
        model = DurationModel(profiles={TaskKind.COMPARE: custom})
        assert model.duration(_description(TaskKind.COMPARE, "c")) == pytest.approx(7.0)


class TestKindLookup:
    """Seconds pinned from the ``TaskKind(kind)`` lookup the model used to do."""

    PINNED = {
        "mpnn_generate": 748.8438701026138,
        "sequence_rank": 29.176364860459255,
        "sequence_select": 20.656951408013388,
        "af_msa": 2826.935070373589,
        "af_inference": 2514.1133913606564,
        "scoring": 554.3386965524887,
        "compare": 10.684984858130157,
        "generic": 56.83337978803341,
    }

    @staticmethod
    def _seconds(kind, name, **metadata) -> float:
        description = TaskDescription(
            name=name, kind=kind, request=ResourceRequest(cpu_cores=1), metadata=metadata
        )
        return DurationModel(seed=7).duration(description)

    def test_every_kind_value(self):
        assert sorted(self.PINNED) == sorted(kind.value for kind in TaskKind)
        for value, seconds in self.PINNED.items():
            assert self._seconds(
                value, f"pin.{value}", n_sequences=12, n_residues=110
            ) == seconds

    def test_member_as_kind(self):
        assert self._seconds(TaskKind.AF_MSA, "pin.member") == 3504.7656149095556

    def test_unknown_kind_uses_the_generic_profile(self):
        assert self._seconds("not-a-kind", "pin.unknown") == 61.190070567778314
