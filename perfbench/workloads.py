"""The benchmark's workloads, as plain data.

Each workload is a family of closed-loop batch sweeps, each generated
inside one process.  One benchmark ``--seed`` derives
:data:`SWEEPS_PER_SEED` sweep seeds, and each sweep seed derives the sweep's
campaign seeds and its target-set seed; the program only ever receives the
resulting ``SweepSpec``.  Repetitions rotate through the sweeps, so one
measurement averages the cost of several inputs: one sweep's cost swings
with its seed by up to 20%.

This module imports nothing from the program, so `run.py` can validate
names without paying for (or needing) the package under test.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

#: The seed whose output digests are pinned below.
DEFAULT_SEED = 0

#: Sweeps derived from one benchmark seed.
SWEEPS_PER_SEED = 8


@dataclass(frozen=True)
class Workload:
    """One sweep and the engine that drains it.

    ``engine`` is ``"suite"`` (serial ``CampaignSuite.run(store=RunStore)``,
    then ``prune_store(strip_timing=True)``) or ``"queue"``
    (``WorkQueue.create`` -> ``workers`` threaded ``run_worker`` calls ->
    ``finalize_queue(strip_timing=True)``).
    """

    name: str
    why: str
    protocols: Tuple[str, ...]
    n_seeds: int
    target_kind: str
    engine: str
    workers: int = 1
    base: Dict[str, object] = field(default_factory=dict)
    n_targets: int = 70
    telemetry: bool = False
    checkpoint_seconds: float = 1.0
    #: sha256 of each sweep's canonical store at :data:`DEFAULT_SEED`.
    pinned_digests: Tuple[str, ...] = ()

    def campaign_seeds(self, sweep_seed: int) -> Tuple[int, ...]:
        """Disjoint, contiguous campaign seeds per sweep seed.

        Sweep seed 0 gives ``0 .. n_seeds-1``: for ``ref-sweep`` that is the
        ROADMAP reference sweep exactly.
        """
        return tuple(range(sweep_seed * self.n_seeds, (sweep_seed + 1) * self.n_seeds))


def sweep_seeds(seed: int) -> Tuple[int, ...]:
    """The sweep seeds benchmark ``seed`` derives (disjoint across seeds)."""
    return tuple(range(seed * SWEEPS_PER_SEED, (seed + 1) * SWEEPS_PER_SEED))

    @property
    def n_runs(self) -> int:
        return len(self.protocols) * self.n_seeds


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="ref-sweep",
            why=(
                "paper-scale mix: im-rp and cont-v x 8 seeds at paper defaults, "
                "serial suite into a RunStore; science and the simulated "
                "runtime do most of the work"
            ),
            protocols=("im-rp", "cont-v"),
            n_seeds=8,
            target_kind="named-pdz",
            engine="suite",
            pinned_digests=(
                "173f3fc7329032429361b4de05a3b7f712d6e5e0a3636b642681ac882c7b0aaa",
                "92627fd93b0978069e9fb8581dab1ac7a763efc026d4177a3f8a6777f5ceef2a",
                "e678cde60a45df13c504c93c4b20265a4a86755f130b4fbdb55047702d9e299a",
                "57968860a60301c53c2c97d6cd098446a9f4c19fcf92993312d4803e74394c9c",
                "abd7ef16a678883f5c9872d39899aaaf4191730d0778c68cddb8c54971c80f16",
                "ec5e93e82310b6d502e0c74532a6d0cf6c112988ebfa3a377a124294dfb8a223",
                "7033e650288f9a61aec02402d1e77e863d2c4ee5eb63011c589d4d2a1fc56244",
                "87eb64735e8817c2d0038e3cd7279a22c9e6b2186307c7f14add3e064fcce9f5",
            ),
        ),
        Workload(
            name="fleet-small-runs",
            why=(
                "32 two-cycle runs per sweep drained by two threaded workers "
                "with telemetry on and a checkpoint per cycle: per-run fleet "
                "overhead dominates"
            ),
            protocols=("cont-v", "im-rp"),
            n_seeds=16,
            target_kind="named-pdz",
            engine="queue",
            workers=2,
            base={"n_cycles": 2, "n_sequences": 2},
            telemetry=True,
            checkpoint_seconds=0.0,
            pinned_digests=(
                "7e4dd731514c14e5324a853936812ea4996404522baa8edc8a3aa9e0f02b5391",
                "bdb04d5c4448439badcd936eaea6a0ff4f2b1e14509804255247e09d606e0907",
                "842264bd6bafd68d91a1223dd59349f0b178f2f4a0435a78a8f58304df44bdac",
                "2ec1c40ff050211de1f47594927a4e9dc59de990f22aee895a7b0bfd3bf838f9",
                "8d7b5eeb2f088c217cf9cffbe24ff51dd4791194495aa6b086043d937536f969",
                "e8b4321c518146fa941c349c67a8cc977b1b89122e46972bcd753ba3a224cc1e",
                "b6892e1f3b0650ea5bf5e0023a533f4d611bbec3de7207b06d4f0fa39ad18d28",
                "ff00958985dec9a8cccfb23797cbfaa02b0209332037d1ea77e57ca55bdf8ca9",
            ),
        ),
        Workload(
            name="expanded-imrp",
            why=(
                "one im-rp campaign over 70 expanded targets on one worker: "
                "the event loop, placement and coordinator carry ~70 "
                "concurrent pipelines while fleet I/O is a single run"
            ),
            protocols=("im-rp",),
            n_seeds=1,
            target_kind="expanded-pdz",
            engine="queue",
            pinned_digests=(
                "78efaa906f95a66bf8572295dccc9076647d256584322a6e4bcf3f2e5118e002",
                "dc38faf0fedadc75d550333efbce21e18dfa2dd609294177ffc220ae4ee94119",
                "9acdbe727a9735feb09854d09a44048828bd562c9e22fcf59eedbb71b59ef0da",
                "79079996392506040394f211f833918b5b5f7bddb77da15e14dba624ff016858",
                "eb9097e5813da8fc3dfd8d3d7265ced3cac1cb15895e4e96e310b4fd50284af8",
                "9a8c6f0ccf30d2b5a43e87293d68e18d0a8cded871f05378a0f77991fe025508",
                "666c709db9a129e7ddf020e858921873e54c3de55360d69bf56a1e0765ccf888",
                "925e770e3e8c22b942533a69aca38828018b0ad9e4a18559f46c3a5b395dd3ee",
            ),
        ),
    )
}
