"""Per-process target sharing: ``TargetSpec.build`` memoises read-only targets.

Every run over one :class:`TargetSpec` shares the same
:class:`~repro.protein.datasets.DesignTarget` objects.  These tests pin what
makes that safe: the shared arrays cannot be written, a full campaign leaves
the targets byte-identical, callers get their own list, and a warm-cache run
equals a cold one.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading

import numpy as np
import pytest

from repro.experiments import CampaignSuite, SweepSpec, TargetSpec, execute_run
from repro.experiments import spec as spec_module
from repro.experiments.spec import RunSpec
from repro.protein import datasets
from repro.protein.structure import Chain

#: The landscape arrays every evaluation reads.
LANDSCAPE_ARRAYS = (
    "_additive",
    "_coupling_tensor",
    "_pair_a",
    "_pair_b",
    "_pair_range",
    "_designable_index",
    "_local_range",
)

SPEC = TargetSpec(kind="named-pdz", seed=11)


@pytest.fixture()
def cold_cache():
    spec_module._build_targets.cache_clear()
    yield
    spec_module._build_targets.cache_clear()


def _target_digest(target) -> str:
    """sha256 over everything a run reads from a target."""
    digest = hashlib.sha256()
    complex_structure = target.complex
    for chain in complex_structure.chains():
        digest.update(chain.sequence.residues.encode())
        digest.update(np.ascontiguousarray(chain.coordinates).tobytes())
    for name in LANDSCAPE_ARRAYS:
        array = getattr(target.landscape, name)
        digest.update(repr((name, array.dtype.str, array.shape)).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(target.landscape.native_sequence.residues.encode())
    digest.update(
        json.dumps(
            [
                complex_structure.name,
                complex_structure.backbone_quality,
                list(complex_structure.designable_positions),
                complex_structure.metadata,
                target.seed,
            ],
            sort_keys=True,
        ).encode()
    )
    return digest.hexdigest()


class TestReadOnlyTargets:
    def test_chain_coordinates_reject_writes(self, cold_cache):
        for target in SPEC.build():
            for chain in target.complex.chains():
                with pytest.raises(ValueError, match="read-only"):
                    chain.coordinates[0, 0] = 1.0

    def test_landscape_arrays_reject_writes(self, cold_cache):
        landscape = SPEC.build()[0].landscape
        for name in LANDSCAPE_ARRAYS:
            array = getattr(landscape, name)
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="read-only"):
            landscape.additive_matrix()[0, 0] = 0.0

    def test_callers_array_stays_writeable(self, target):
        coords = np.array(target.complex.receptor.coordinates)
        chain = Chain(
            sequence=target.complex.receptor.sequence, coordinates=coords
        )
        assert coords.flags.writeable
        assert not chain.coordinates.flags.writeable
        coords[0, 0] += 1.0  # the caller's own array is never frozen

    def test_metadata_stays_a_picklable_dict(self, cold_cache):
        structure = SPEC.build()[0].complex.with_metadata(cycle=1)
        assert type(structure.metadata) is dict
        assert pickle.loads(pickle.dumps(structure)).metadata == structure.metadata

    @pytest.mark.parametrize("protocol", ["im-rp", "cont-v"])
    def test_full_run_leaves_cached_targets_unchanged(self, cold_cache, protocol):
        before = [_target_digest(target) for target in SPEC.build()]
        execute_run(RunSpec(run_id=protocol, protocol=protocol, seed=3, targets=SPEC))
        assert [_target_digest(target) for target in SPEC.build()] == before


class TestBuildCache:
    def test_build_returns_fresh_list_of_shared_targets(self, cold_cache):
        first = SPEC.build()
        second = SPEC.build()
        assert first is not second
        assert all(a is b for a, b in zip(first, second))
        first.clear()
        assert len(SPEC.build()) == 4

    def test_equal_specs_share_one_entry(self, cold_cache):
        SPEC.build()
        TargetSpec(kind="named-pdz", seed=11).build()
        info = spec_module._build_targets.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_cold_and_warm_runs_are_identical(self, cold_cache):
        run = RunSpec(
            run_id="r",
            protocol="im-rp",
            seed=5,
            targets=SPEC,
            overrides=(("n_cycles", 2), ("n_sequences", 4)),
        )
        cold, _ = execute_run(run)
        assert spec_module._build_targets.cache_info().misses == 1
        warm, _ = execute_run(run)
        assert spec_module._build_targets.cache_info().hits == 1
        assert json.dumps(warm.as_dict(), sort_keys=True) == json.dumps(
            cold.as_dict(), sort_keys=True
        )

    def test_concurrent_builds_agree(self, cold_cache):
        barrier = threading.Barrier(2)
        built = [None, None]

        def build(slot: int) -> None:
            barrier.wait()
            built[slot] = [_target_digest(target) for target in SPEC.build()]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert built[0] is not None and built[0] == built[1]

    def test_sixteen_run_suite_builds_each_target_once(self, cold_cache, monkeypatch):
        calls = []
        original = datasets.make_pdz_target

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(datasets, "make_pdz_target", counting)
        sweep = SweepSpec(
            protocols=("im-rp", "cont-v"),
            seeds=tuple(range(8)),
            targets=TargetSpec(kind="named-pdz", seed=2),
            base={"n_cycles": 1, "n_sequences": 2},
        )
        outcome = CampaignSuite(sweep, executor="serial").run()
        assert outcome.n_executed == 16
        assert sorted(calls) == sorted(datasets.PDZ_TARGET_NAMES)

