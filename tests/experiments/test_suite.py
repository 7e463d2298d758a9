"""Tests for the experiments layer: sweep specs and the parallel suite engine."""

from __future__ import annotations

import pytest

from repro.analysis.comparison import protocol_matrix
from repro.analysis.reporting import format_protocol_matrix
from repro.core.campaign import CampaignConfig, DesignCampaign
from repro.exceptions import CampaignError
from repro.experiments import CampaignSuite, SweepSpec, TargetSpec, execute_run
from repro.experiments.cli import main as cli_main
from repro.experiments.spec import RunSpec
from repro.protein.datasets import ALPHA_SYNUCLEIN_C4, ALPHA_SYNUCLEIN_C10
from repro.store.fingerprint import run_fingerprint
from repro.utils.serialization import to_jsonable

#: Small-but-real sweep shared by the engine tests: 4 protocols x 2 seeds = 8
#: (protocol, seed) combinations, one design cycle each to keep it fast.
SMALL_SWEEP = SweepSpec(
    protocols=("im-rp", "cont-v", "im-rp-random", "cont-v-ranked"),
    seeds=(3, 5),
    targets=TargetSpec(kind="named-pdz", seed=11),
    base={"n_cycles": 1, "n_sequences": 4},
)


class TestTargetSpec:
    def test_named_pdz_build(self):
        targets = TargetSpec(kind="named-pdz", seed=11).build()
        assert [t.name for t in targets] == ["NHERF3", "HTRA1", "SCRIB", "SHANK1"]

    def test_expanded_pdz_build(self):
        targets = TargetSpec(kind="expanded-pdz", seed=2, n_targets=3).build()
        assert [t.name for t in targets] == ["PDZ_001", "PDZ_002", "PDZ_003"]

    def test_build_is_deterministic(self):
        spec = TargetSpec(kind="named-pdz", seed=4)
        first, second = spec.build(), spec.build()
        assert [t.seed for t in first] == [t.seed for t in second]

    def test_invalid_kind_rejected(self):
        with pytest.raises(CampaignError, match="target kind"):
            TargetSpec(kind="kinases")

    def test_invalid_peptide_rejected_at_construction(self):
        with pytest.raises(CampaignError, match=r"\['!', 'X', 'Z'\]"):
            TargetSpec(peptide="XZ!")

    def test_empty_peptide_rejected(self):
        with pytest.raises(CampaignError, match="at least one residue"):
            TargetSpec(peptide="")

    def test_none_peptide_means_the_kind_default(self):
        named = TargetSpec(kind="named-pdz", seed=1).build()
        assert named[0].peptide_sequence == ALPHA_SYNUCLEIN_C10
        expanded = TargetSpec(kind="expanded-pdz", seed=1, n_targets=1).build()
        assert expanded[0].peptide_sequence == ALPHA_SYNUCLEIN_C4

    @pytest.mark.parametrize(
        ("targets", "fingerprint"),
        [
            (
                TargetSpec(),
                "ba86c04626e1ec36895cd103b782947eab23db830d6b1a59d8ceaebf829dac8f",
            ),
            (
                TargetSpec(kind="named-pdz", seed=3, peptide="EPEA"),
                "9e34d1842d7a0ffef936ef6efa4f09b8487970c159604e22d49c6f7451f7a877",
            ),
            (
                TargetSpec(
                    kind="expanded-pdz", seed=1, n_targets=5, peptide="GYQDYEPEA"
                ),
                "778ea235eef2324e67aa2f99ac2233a64b198f089ced7119dac9586dfcf9b5b9",
            ),
        ],
    )
    def test_valid_spec_fingerprints_are_pinned(self, targets, fingerprint):
        run = RunSpec(run_id="x", protocol="im-rp", seed=0, targets=targets)
        assert run_fingerprint(run) == fingerprint


class TestSweepSpec:
    def test_expand_is_full_cartesian_product(self):
        sweep = SweepSpec(
            protocols=("im-rp", "cont-v"),
            seeds=(0, 1, 2),
            knobs=({}, {"max_in_flight_pipelines": 2}),
        )
        runs = sweep.expand()
        assert len(runs) == sweep.n_runs == 2 * 3 * 2
        assert len({run.run_id for run in runs}) == len(runs)

    def test_run_ids_omit_constant_axes(self):
        runs = SweepSpec(protocols=("im-rp",), seeds=(7,)).expand()
        assert [run.run_id for run in runs] == ["im-rp-s7"]

    def test_knob_overrides_reach_campaign_config(self):
        sweep = SweepSpec(
            protocols=("im-rp",),
            seeds=(0,),
            knobs=({"max_in_flight_pipelines": 1}, {"max_in_flight_pipelines": 4}),
            base={"n_cycles": 2},
        )
        configs = [run.campaign_config() for run in sweep.expand()]
        assert [c.max_in_flight_pipelines for c in configs] == [1, 4]
        assert all(c.n_cycles == 2 for c in configs)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(CampaignError, match="unknown protocols"):
            SweepSpec(protocols=("im-rp", "nope"), seeds=(0,))

    def test_unknown_override_field_rejected(self):
        with pytest.raises(CampaignError, match="unknown CampaignConfig field"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), base={"n_cyclez": 2})

    def test_reserved_override_rejected(self):
        with pytest.raises(CampaignError, match="may not override"):
            SweepSpec(protocols=("im-rp",), seeds=(0,), knobs=({"seed": 9},))

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(CampaignError):
            SweepSpec(protocols=("im-rp", "im-rp"), seeds=(0,))
        with pytest.raises(CampaignError):
            SweepSpec(protocols=("im-rp",), seeds=(0, 0))


@pytest.fixture(scope="module")
def serial_outcome():
    return CampaignSuite(SMALL_SWEEP, executor="serial").run()


@pytest.fixture(scope="module")
def process_outcome():
    return CampaignSuite(SMALL_SWEEP, executor="process", max_workers=4).run()


def _fingerprint(result):
    return (
        result.approach,
        result.protocol,
        result.n_pipelines,
        result.n_subpipelines,
        result.n_trajectories,
        result.makespan_hours,
        result.total_task_hours,
        result.cpu_utilization,
        result.gpu_utilization,
        tuple(sorted(result.net_deltas().items())),
    )


class TestCampaignSuite:
    def test_invalid_executor_rejected(self):
        with pytest.raises(CampaignError, match="executor"):
            CampaignSuite(SMALL_SWEEP, executor="mpi")

    def test_serial_covers_every_combination(self, serial_outcome):
        assert serial_outcome.n_runs == 8
        assert serial_outcome.executor == "serial"
        assert {r.spec.protocol for r in serial_outcome.records} == set(
            SMALL_SWEEP.protocols
        )
        assert {r.spec.seed for r in serial_outcome.records} == set(SMALL_SWEEP.seeds)

    def test_process_pool_matches_serial_exactly(self, serial_outcome, process_outcome):
        """Parallel fan-out must not perturb any seeded per-run result."""
        assert process_outcome.n_runs == serial_outcome.n_runs
        for serial_record, process_record in zip(
            serial_outcome.records, process_outcome.records
        ):
            assert serial_record.spec == process_record.spec
            assert _fingerprint(serial_record.result) == _fingerprint(
                process_record.result
            )

    def test_suite_run_identical_to_standalone_campaign(self, process_outcome):
        """A run inside a suite equals running that campaign alone."""
        record = process_outcome.find("im-rp-s5")
        standalone = DesignCampaign(
            TargetSpec(kind="named-pdz", seed=11).build(),
            CampaignConfig(protocol="im-rp", seed=5, n_cycles=1, n_sequences=4),
        ).run()
        assert _fingerprint(record.result) == _fingerprint(standalone)

    def test_thread_executor_matches_serial(self, serial_outcome):
        sweep = SweepSpec(
            protocols=("cont-v",),
            seeds=(3,),
            targets=TargetSpec(kind="named-pdz", seed=11),
            base={"n_cycles": 1, "n_sequences": 4},
        )
        outcome = CampaignSuite(sweep, executor="thread", max_workers=2).run()
        want = serial_outcome.find("cont-v-s3")
        assert _fingerprint(outcome.records[0].result) == _fingerprint(want.result)

    def test_timing_accounting(self, process_outcome):
        assert process_outcome.wall_seconds > 0
        assert process_outcome.total_run_seconds > 0
        assert process_outcome.speedup > 0
        assert all(r.wall_seconds > 0 for r in process_outcome.records)

    def test_missing_run_id_raises(self, serial_outcome):
        with pytest.raises(CampaignError, match="no run"):
            serial_outcome.find("im-rp-s999")

    def test_result_is_json_serialisable(self, serial_outcome):
        payload = to_jsonable(serial_outcome.as_dict())
        assert payload["n_runs"] == 8
        assert len(payload["runs"]) == 8

    def test_execute_run_helper(self):
        result, seconds = execute_run(SMALL_SWEEP.expand()[1])
        assert result.approach == "IM-RP"
        assert seconds > 0


class TestProtocolMatrix:
    def test_one_row_per_protocol(self, serial_outcome):
        rows = protocol_matrix(serial_outcome.results)
        assert [row.protocol for row in rows] == list(SMALL_SWEEP.protocols)
        for row in rows:
            assert row.n_runs == len(SMALL_SWEEP.seeds)

    def test_empty_input_rejected(self):
        with pytest.raises(CampaignError):
            protocol_matrix([])

    def test_formatting(self, serial_outcome):
        rows = protocol_matrix(serial_outcome.results)
        text = format_protocol_matrix(rows)
        for protocol in SMALL_SWEEP.protocols:
            assert protocol in text


class TestCli:
    def test_list_protocols(self, capsys):
        assert cli_main(["--list-protocols"]) == 0
        out = capsys.readouterr().out
        assert "im-rp" in out and "cont-v" in out

    def test_small_serial_sweep(self, capsys):
        code = cli_main(
            [
                "--protocols", "cont-v",
                "--seeds", "3",
                "--cycles", "1",
                "--sequences", "4",
                "--target-seed", "11",
                "--executor", "serial",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cont-v-s3" in out
        assert "Suite: 1 runs" in out

    def test_unknown_protocol_is_a_clean_error(self, capsys):
        assert cli_main(["--protocols", "warp-drive", "--executor", "serial"]) == 2
        assert "unknown protocols" in capsys.readouterr().err

    def test_max_in_flight_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--max-in-flight", "0", "--executor", "serial"])
        assert excinfo.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    def test_max_in_flight_none_vs_values(self):
        from repro.experiments.cli import build_parser, sweep_from_args

        parser = build_parser()
        default = sweep_from_args(parser.parse_args(["--executor", "serial"]))
        assert default.knobs == ({},)
        swept = sweep_from_args(
            parser.parse_args(["--max-in-flight", "1", "2", "--executor", "serial"])
        )
        assert swept.knobs == (
            {"max_in_flight_pipelines": 1},
            {"max_in_flight_pipelines": 2},
        )
