"""Tests for the pipelines coordinator (IM-RP) and the control protocol (CONT-V)."""

from __future__ import annotations

import pytest

from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.core.control import ControlConfig, ControlProtocol
from repro.core.coordinator import CoordinatorConfig, PipelinesCoordinator
from repro.core.decision import SubPipelinePolicy
from repro.core.pipeline import PipelineConfig, PipelineStatus
from repro.exceptions import CampaignError, CoordinatorError
from repro.experiments.spec import TargetSpec
from repro.protein import metrics as metrics_module
from repro.protein.metrics import QualityMetrics


@pytest.fixture()
def coordinator(session, factory):
    return PipelinesCoordinator(
        session,
        factory,
        CoordinatorConfig(pipeline=PipelineConfig(n_cycles=2, n_sequences=5)),
    )


class TestCoordinator:
    def test_runs_all_root_pipelines_to_completion(self, coordinator, four_targets):
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        roots = [record for record in records if record.parent_uid is None]
        assert len(roots) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in roots)

    def test_run_without_targets_raises(self, coordinator):
        with pytest.raises(CoordinatorError):
            coordinator.run()

    def test_tasks_from_different_pipelines_overlap(self, coordinator, four_targets):
        coordinator.add_targets(four_targets)
        coordinator.run()
        tasks = coordinator.session.pilot.agent.tasks()
        by_pipeline = {}
        for task in tasks:
            by_pipeline.setdefault(task.metadata["pipeline_uid"], []).append(task)
        # At least two pipelines must have had tasks running at the same time.
        spans = {
            uid: (min(t.start_time for t in ts), max(t.end_time for t in ts))
            for uid, ts in by_pipeline.items()
        }
        values = sorted(spans.values())
        overlapping = any(
            later_start < earlier_end
            for (_, earlier_end), (later_start, _) in zip(values, values[1:])
        )
        assert overlapping

    def test_subpipelines_spawned_and_recorded(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=2, n_sequences=5),
                spawn_policy=SubPipelinePolicy(quality_margin=0.05, max_per_pipeline=2),
            ),
        )
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        subs = [record for record in records if record.parent_uid is not None]
        assert coordinator.n_subpipelines == len(subs)
        assert len(subs) >= 1
        for sub in subs:
            assert sub.uid.startswith(sub.parent_uid)
            assert all(t.is_subpipeline for t in sub.trajectories)

    def test_no_subpipelines_when_policy_disallows(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=2, n_sequences=5),
                spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
            ),
        )
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        assert coordinator.n_subpipelines == 0
        assert all(record.parent_uid is None for record in records)

    def test_in_flight_cap_serialises_roots(self, session, factory, four_targets):
        coordinator = PipelinesCoordinator(
            session,
            factory,
            CoordinatorConfig(
                pipeline=PipelineConfig(n_cycles=1, n_sequences=4),
                spawn_policy=SubPipelinePolicy(max_per_pipeline=0, spawn_on_rejection=False),
                max_in_flight_pipelines=1,
            ),
        )
        coordinator.add_targets(four_targets)
        records = coordinator.run()
        assert len(records) == 4
        assert all(record.status is PipelineStatus.COMPLETED for record in records)
        # With the cap at one, roots execute one after another: their task
        # spans must not interleave.
        tasks = coordinator.session.pilot.agent.tasks()
        spans = {}
        for task in tasks:
            uid = task.metadata["pipeline_uid"]
            start, end = spans.get(uid, (float("inf"), 0.0))
            spans[uid] = (min(start, task.start_time), max(end, task.end_time))
        ordered = sorted(spans.values())
        for (_, earlier_end), (later_start, _) in zip(ordered, ordered[1:]):
            assert later_start >= earlier_end - 1e-6

    def test_completed_channel_saw_every_task(self, coordinator, four_targets):
        coordinator.add_targets(four_targets[:2])
        coordinator.run()
        total_tasks = len(coordinator.session.pilot.agent.tasks())
        assert coordinator.completed_channel.put_count == total_tasks

    def test_each_design_is_scored_at_most_once(self, monkeypatch):
        """Decision steps read cached composites instead of re-scoring the cohort.

        Every decision step consults the latest composite of every pipeline,
        so re-scoring would evaluate the composite arithmetic once per
        (step, pipeline) pair: quadratic in campaign size.
        """
        counts = {"instances": 0, "computed": 0, "cohort_reads": 0}
        post_init = QualityMetrics.__post_init__
        compute = metrics_module._weighted_composite
        cohort = PipelinesCoordinator._cohort_composites

        def counting_post_init(self):
            counts["instances"] += 1
            post_init(self)

        def counting_compute(metrics, shares):
            counts["computed"] += 1
            return compute(metrics, shares)

        def counting_cohort(self):
            composites = cohort(self)
            counts["cohort_reads"] += len(composites)
            return composites

        monkeypatch.setattr(QualityMetrics, "__post_init__", counting_post_init)
        monkeypatch.setattr(metrics_module, "_weighted_composite", counting_compute)
        monkeypatch.setattr(PipelinesCoordinator, "_cohort_composites", counting_cohort)
        targets = TargetSpec(kind="expanded-pdz", n_targets=12, seed=3).build()
        config = CampaignConfig(protocol="im-rp", n_cycles=2, n_sequences=4, seed=3)
        result = DesignCampaign(targets, config).run()

        assert result.n_subpipelines > 0
        assert counts["cohort_reads"] > counts["instances"] > 0
        assert counts["computed"] <= counts["instances"]


class TestControlProtocol:
    def test_single_pipeline_record(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=2))
        records = control.run(four_targets)
        assert len(records) == 1
        record = records[0]
        assert record.uid == ControlProtocol.PIPELINE_UID
        assert record.parent_uid is None
        assert record.status is PipelineStatus.COMPLETED

    def test_trajectory_count_is_targets_times_cycles(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=3))
        records = control.run(four_targets)
        assert records[0].n_trajectories == len(four_targets) * 3

    def test_sequential_execution_never_overlaps(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=1))
        control.run(four_targets[:2])
        tasks = control.runner.tasks()
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start_time >= earlier.end_time - 1e-9

    def test_cannot_run_twice(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations)
        control.run(four_targets[:1])
        with pytest.raises(CampaignError):
            control.run(four_targets[:1])

    def test_needs_targets(self, platform, factory, durations):
        control = ControlProtocol(platform, factory, durations)
        with pytest.raises(CampaignError):
            control.run([])

    def test_every_cycle_accepted_without_adaptivity(self, platform, factory, durations, four_targets):
        control = ControlProtocol(platform, factory, durations, ControlConfig(n_cycles=2))
        records = control.run(four_targets[:2])
        assert all(cycle.accepted for cycle in records[0].cycles)
        assert all(not cycle.adaptive for cycle in records[0].cycles)
