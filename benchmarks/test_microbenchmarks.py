"""Micro-benchmarks of the substrates.

These use pytest-benchmark's normal statistics (many rounds) to track the
performance of the hot paths the campaign simulation relies on: the event
loop, the placement scheduler, the surrogate models and a small end-to-end
pipeline.  They guard against performance regressions that would make the
paper-scale experiments (Fig 3: 70 targets, hundreds of trajectories)
impractically slow.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.core.pipeline import Pipeline, PipelineConfig
from repro.core.stages import StageFactory
from repro.hpc.allocation import NodeAllocator
from repro.hpc.events import EventLoop
from repro.hpc.resources import ResourceRequest, amarel_platform
from repro.hpc.scheduler import FifoScheduler, QueuedRequest
from repro.protein.datasets import make_pdz_target
from repro.protein.folding import SurrogateAlphaFold
from repro.protein.mpnn import SurrogateProteinMPNN
from repro.protein.scoring import ScoringFunction
from repro.protein.structure import synthetic_backbone
from repro.runtime.durations import DurationModel
from repro.runtime.states import TaskState
from repro.runtime.task import Task


@pytest.fixture(scope="module")
def micro_target():
    return make_pdz_target("NHERF3", seed=99)


def test_event_loop_throughput(benchmark):
    def run_10k_events():
        loop = EventLoop()
        counter = [0]

        def tick():
            counter[0] += 1

        for index in range(10_000):
            loop.schedule(float(index % 100), tick)
        loop.run()
        return counter[0]

    assert benchmark(run_10k_events) == 10_000


def _min_of_3_seconds(function, *args) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        function(*args)
        best = min(best, time.perf_counter() - start)
    return best


def test_backbone_construction_is_linear_time():
    """16x the residues must cost about 16x the time, not 256x.

    Timed with ``perf_counter`` rather than the ``benchmark`` fixture so the
    bound still holds under ``--benchmark-disable``.  Linear scaling gives a
    ratio of about 16; the old quadratic walk measured about 47.
    """
    short = _min_of_3_seconds(synthetic_backbone, 200, 1)
    long = _min_of_3_seconds(synthetic_backbone, 3200, 1)
    assert long / short <= 24, f"3200/200-residue time ratio {long / short:.1f}"


def test_scheduler_placement_throughput(benchmark):
    def place_500_tasks():
        allocator = NodeAllocator(amarel_platform(4))
        scheduler = FifoScheduler(allocator)
        placed = 0
        for index in range(500):
            scheduler.submit(
                QueuedRequest(f"task-{index}", ResourceRequest(cpu_cores=1), 0.0)
            )
        # Every batch's allocations are released immediately below, so the
        # platform always has capacity; an empty batch therefore means no
        # forward progress is possible — break and let the count assertion
        # fail loudly instead of spinning or double-releasing.
        while scheduler.queue_length:
            batch = scheduler.try_place()
            if not batch:
                break
            placed += len(batch)
            for _, allocation in batch:
                allocator.release(allocation)
        return placed

    assert benchmark(place_500_tasks) == 500


def test_mpnn_generation_speed(benchmark, micro_target):
    mpnn = SurrogateProteinMPNN(seed=1)
    result = benchmark(
        lambda: mpnn.generate(micro_target.complex, micro_target.landscape, n_sequences=10)
    )
    assert len(result) == 10


def test_folding_prediction_speed(benchmark, micro_target):
    folding = SurrogateAlphaFold(seed=1)
    result = benchmark(
        lambda: folding.predict(micro_target.complex, micro_target.landscape)
    )
    assert 0.0 <= result.fitness <= 1.0


def test_landscape_fitness_speed(benchmark, micro_target):
    sequence = micro_target.complex.receptor.sequence
    value = benchmark(lambda: micro_target.landscape.fitness(sequence))
    assert 0.0 <= value <= 1.0


def test_landscape_fitness_batch_speed(benchmark, micro_target):
    """64 sequences through one fitness_batch call (vs 64 scalar calls)."""
    landscape = micro_target.landscape
    mpnn = SurrogateProteinMPNN(seed=3)
    sequences = [
        scored.sequence
        for scored in mpnn.generate(
            micro_target.complex, landscape, n_sequences=64, stream=("bench",)
        )
    ]
    encoded = np.stack([sequence.encode() for sequence in sequences])

    values = benchmark(lambda: landscape.fitness_batch(encoded))
    assert values.shape == (64,)
    assert np.all((values >= 0.0) & (values <= 1.0))


def test_folding_predict_batch_speed(benchmark, micro_target):
    """One GA-generation-sized population through predict_batch."""
    landscape = micro_target.landscape
    mpnn = SurrogateProteinMPNN(seed=4)
    folding = SurrogateAlphaFold(seed=4)
    sequences = [
        scored.sequence
        for scored in mpnn.generate(
            micro_target.complex, landscape, n_sequences=24, stream=("bench",)
        )
    ]
    streams = [(index,) for index in range(len(sequences))]

    results = benchmark(
        lambda: folding.predict_batch(
            micro_target.complex, landscape, sequences, streams=streams
        )
    )
    assert len(results) == 24


def test_scoring_vectorized_speed(benchmark, micro_target):
    """Vectorized coarse-energy scoring of one complex."""
    scoring = ScoringFunction()
    breakdown = benchmark(lambda: scoring.score(micro_target.complex))
    assert np.isfinite(breakdown.total)


def test_single_pipeline_inline_execution(benchmark, micro_target):
    """One full design pipeline (2 cycles) executed synchronously."""
    factory = StageFactory(durations=DurationModel(seed=1))

    def run_pipeline():
        pipeline = Pipeline(
            "bench.pipeline",
            micro_target,
            factory,
            PipelineConfig(n_cycles=2, n_sequences=6),
        )
        queue = list(pipeline.start())
        while queue:
            description = queue.pop(0)
            task = Task(description)
            task.advance(TaskState.TMGR_SCHEDULING, 0.0)
            task.advance(TaskState.AGENT_SCHEDULING, 0.0)
            task.advance(TaskState.EXECUTING, 0.0)
            task.result = description.payload() if description.payload else None
            task.advance(TaskState.DONE, 0.0)
            queue.extend(pipeline.advance(task).new_tasks)
        return pipeline

    pipeline = benchmark(run_pipeline)
    assert pipeline.status.value == "COMPLETED"
