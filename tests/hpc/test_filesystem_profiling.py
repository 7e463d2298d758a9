"""Tests for the filesystem cost model, the profiler and the platform facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError, SimulationError
from repro.hpc.filesystem import FilesystemSpec, SharedFilesystem
from repro.hpc.platform import ComputePlatform
from repro.hpc.profiling import ExecutionProfiler, PhaseInterval, ResourceInterval
from repro.hpc.resources import amarel_platform


class TestFilesystemSpec:
    def test_defaults_valid(self):
        spec = FilesystemSpec()
        assert spec.read_bandwidth_gb_s > 0

    def test_invalid_bandwidth(self):
        with pytest.raises(ConfigurationError):
            FilesystemSpec(read_bandwidth_gb_s=0)

    def test_negative_latency(self):
        with pytest.raises(ConfigurationError):
            FilesystemSpec(metadata_latency_s=-1)


class TestSharedFilesystem:
    def test_read_time_scales_with_volume(self):
        fs = SharedFilesystem(FilesystemSpec(read_bandwidth_gb_s=2.0, metadata_latency_s=0.0))
        assert fs.read_time(4.0) == pytest.approx(2.0)
        assert fs.read_time(8.0) == pytest.approx(4.0)

    def test_metadata_latency_added_per_file(self):
        fs = SharedFilesystem(FilesystemSpec(metadata_latency_s=0.1))
        base = fs.read_time(0.0, files=0)
        with_files = fs.read_time(0.0, files=5)
        assert with_files - base == pytest.approx(0.5)

    def test_contention_halves_bandwidth(self):
        fs = SharedFilesystem(FilesystemSpec(read_bandwidth_gb_s=2.0, metadata_latency_s=0.0))
        solo = fs.read_time(4.0)
        fs.register_reader()
        fs.register_reader()
        contended = fs.read_time(4.0)
        assert contended == pytest.approx(2 * solo)
        fs.unregister_reader()
        fs.unregister_reader()

    def test_unbalanced_unregister_raises(self):
        fs = SharedFilesystem()
        with pytest.raises(ConfigurationError):
            fs.unregister_reader()

    def test_write_time_and_counters(self):
        fs = SharedFilesystem(FilesystemSpec(write_bandwidth_gb_s=1.0, metadata_latency_s=0.0))
        assert fs.write_time(3.0) == pytest.approx(3.0)
        assert fs.counters()["bytes_written"] == pytest.approx(3.0e9)

    def test_sandbox_setup_time(self):
        fs = SharedFilesystem(FilesystemSpec(metadata_latency_s=0.02))
        assert fs.sandbox_setup_time(files=6) == pytest.approx(0.12)

    def test_negative_volume_rejected(self):
        with pytest.raises(ConfigurationError):
            SharedFilesystem().read_time(-1.0)


def _interval(task: str, start: float, end: float, cores=(0,), gpus=()):
    return ResourceInterval(
        task_id=task, node="amarel-gpu-node-000",
        cpu_core_ids=tuple(cores), gpu_ids=tuple(gpus), start=start, end=end,
    )


class TestExecutionProfiler:
    def setup_method(self):
        self.profiler = ExecutionProfiler(amarel_platform(1))

    def test_empty_profiler_raises_on_span(self):
        with pytest.raises(SimulationError):
            self.profiler.span()

    def test_interval_validation(self):
        with pytest.raises(SimulationError):
            _interval("t", 5.0, 1.0)

    def test_makespan_and_busy_seconds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0, 1)))
        self.profiler.record_resource_interval(_interval("b", 5.0, 15.0, cores=(2,), gpus=(0,)))
        assert self.profiler.makespan() == pytest.approx(15.0)
        assert self.profiler.busy_core_seconds() == pytest.approx(2 * 10 + 10)
        assert self.profiler.busy_gpu_seconds() == pytest.approx(10.0)

    def test_average_utilization(self):
        # 14 cores busy for the entire window of 10 s -> 50 % CPU.
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=tuple(range(14))))
        assert self.profiler.cpu_utilization() == pytest.approx(0.5)
        assert self.profiler.gpu_utilization() == 0.0

    def test_utilization_with_window(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0,)))
        value = self.profiler.cpu_utilization(window=(0.0, 20.0))
        assert value == pytest.approx(10.0 / (20.0 * 28))

    def test_timeline_shape_and_bounds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 50.0, cores=tuple(range(28))))
        centers, series = self.profiler.utilization_timeline("cpu", n_bins=10)
        assert centers.shape == (10,)
        assert series.shape == (10,)
        assert np.all(series <= 1.0 + 1e-9)
        assert np.all(series >= 0.0)
        assert series.mean() == pytest.approx(1.0, rel=1e-6)

    def test_gpu_timeline_counts_only_gpus(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0, cores=(0,), gpus=(0, 1)))
        _, series = self.profiler.utilization_timeline("gpu", n_bins=5)
        assert series.mean() == pytest.approx(0.5, rel=1e-6)

    def test_phase_totals(self):
        self.profiler.record_phase("t1", "exec_setup", 0.0, 2.0)
        self.profiler.record_phase("t1", "running", 2.0, 12.0)
        self.profiler.record_phase("t2", "running", 5.0, 10.0)
        totals = self.profiler.phase_totals()
        assert totals["exec_setup"] == pytest.approx(2.0)
        assert totals["running"] == pytest.approx(15.0)
        selected = self.profiler.phase_totals(["bootstrap", "running"])
        assert selected["bootstrap"] == 0.0

    def test_device_busy_seconds(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 8.0, gpus=(1,)))
        busy = self.profiler.device_busy_seconds("gpu")
        assert busy[("amarel-gpu-node-000", 1)] == pytest.approx(8.0)

    def test_concurrency_timeline(self):
        self.profiler.record_resource_interval(_interval("a", 0.0, 10.0))
        self.profiler.record_resource_interval(_interval("b", 0.0, 10.0))
        _, series = self.profiler.concurrency_timeline(n_bins=4)
        assert np.allclose(series, 2.0)

    def test_phase_interval_validation(self):
        with pytest.raises(SimulationError):
            PhaseInterval(entity_id="x", phase="running", start=3.0, end=1.0)


class TestComputePlatform:
    def test_defaults_to_amarel(self):
        platform = ComputePlatform()
        assert platform.spec.total_cpu_cores == 28
        assert platform.spec.total_gpus == 4

    def test_describe_includes_filesystem(self):
        assert "filesystem" in ComputePlatform().describe()
