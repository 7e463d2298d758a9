"""Layer-boundary spans recorded from outside the program.

The traced repetition wraps public functions at each layer boundary (see
:data:`LAYERS`) with :class:`Tracer` spans.  Spans are aggregated in memory
as they close, per thread, and reduced to per-layer counts, inclusive
seconds and self seconds when the repetition ends.  Nothing here is imported
by the program, and :class:`Patcher` restores every binding it replaced.

A span's *self time* is its duration minus the durations of its direct
children.  When a layer re-enters itself (``try_steal`` calling
``try_claim``), only the outermost span counts a call, inclusive time and
extras, so ``.s`` never double counts; self time is still split exactly.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Extra counters a layer accumulates: ``after(args, result, before)`` returns
#: ``{counter: amount}``; ``before(args)`` runs ahead of the call.
Before = Callable[[tuple], Any]
After = Callable[[tuple, Any, Any], Dict[str, float]]


@dataclass
class LayerTotals:
    """What one thread (or, merged, the whole process) spent in one layer."""

    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    extras: Dict[str, float] = field(default_factory=dict)

    def merge(self, other: "LayerTotals") -> None:
        self.calls += other.calls
        self.seconds += other.seconds
        self.self_seconds += other.self_seconds
        for key, value in other.extras.items():
            self.extras[key] = self.extras.get(key, 0.0) + value


class _Frame:
    __slots__ = ("name", "start", "children", "outermost")

    def __init__(self, name: str, start: float, outermost: bool) -> None:
        self.name = name
        self.start = start
        self.children = 0.0
        self.outermost = outermost


class Tracer:
    """Span stacks and layer totals, one set per thread, no shared lock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._local = threading.local()
        self._all: List[Dict[str, LayerTotals]] = []
        self._register = threading.Lock()

    def _state(self) -> Tuple[List[_Frame], Dict[str, LayerTotals], Dict[str, int]]:
        local = self._local
        try:
            return local.stack, local.totals, local.depth
        except AttributeError:
            local.stack, local.totals, local.depth = [], {}, {}
            with self._register:
                self._all.append(local.totals)
            return local.stack, local.totals, local.depth

    def enter(self, name: str) -> None:
        stack, _, depth = self._state()
        level = depth.get(name, 0)
        depth[name] = level + 1
        stack.append(_Frame(name, self._clock(), level == 0))

    def exit(self, extras: Optional[Dict[str, float]] = None) -> None:
        end = self._clock()
        stack, totals, depth = self._state()
        frame = stack.pop()
        depth[frame.name] -= 1
        duration = end - frame.start
        if stack:
            stack[-1].children += duration
        layer = totals.get(frame.name)
        if layer is None:
            layer = totals[frame.name] = LayerTotals()
        layer.self_seconds += duration - frame.children
        if frame.outermost:
            layer.calls += 1
            layer.seconds += duration
            for key, value in (extras or {}).items():
                layer.extras[key] = layer.extras.get(key, 0.0) + value

    def is_outermost(self) -> bool:
        """Whether the innermost open span is the outermost of its layer."""
        stack, _, _ = self._state()
        return bool(stack) and stack[-1].outermost

    def totals(self) -> Dict[str, LayerTotals]:
        """Every thread's totals merged by layer name."""
        merged: Dict[str, LayerTotals] = {}
        with self._register:
            per_thread = list(self._all)
        for totals in per_thread:
            for name, layer in totals.items():
                merged.setdefault(name, LayerTotals()).merge(layer)
        return merged

    def wrap(
        self,
        name: str,
        function: Callable,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> Callable:
        """``function`` inside a span named ``name`` (a plain function, so
        it binds as a method when set on a class)."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            self.enter(name)
            extras = None
            try:
                state = before(args) if before is not None else None
                result = function(*args, **kwargs)
                if after is not None and self.is_outermost():
                    extras = after(args, result, state)
                return result
            finally:
                self.exit(extras)

        return traced


class Patcher:
    """Replaces bindings in ``repro`` modules and classes, and undoes it.

    :meth:`replace_function` rebinds *every* module attribute that holds the
    original object, so names imported by value (``from repro.utils.rng
    import spawn_rng``) are traced too.  :meth:`replace_method` patches the
    class in the MRO that defines the method, once.
    """

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def replace_function(self, original: Callable, replacement: Callable) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)

    def replace_method(self, cls: type, attr: str, wrap: Callable) -> None:
        owner = next(klass for klass in cls.__mro__ if attr in vars(klass))
        if any(entry[0] is owner and entry[1] == attr for entry in self._undo):
            return  # an inherited method shared by several registered classes
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _file_size(path: Any) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _resolve(dotted: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (class or module, attr)."""
    module_name, _, qualname = dotted.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


@dataclass(frozen=True)
class Layer:
    """One layer boundary: a span name and the public callables it wraps.

    ``moves`` names the end-to-end metric and workload a change to this
    layer should move, written down before anything is measured.
    """

    name: str
    targets: Tuple[str, ...]
    moves: str
    before: Optional[Before] = None
    after: Optional[After] = None
    #: Counters ``after`` returns, reported as ``<layer>.<counter>``.
    extras: Tuple[str, ...] = ()
    #: ``(metric suffix, numerator extra, denominator extra or "calls")``.
    ratios: Tuple[Tuple[str, str, str], ...] = ()


def _protocol_steps() -> Tuple[str, ...]:
    """``step`` of every registered protocol class."""
    protocols = importlib.import_module("repro.core.protocols")
    classes = (type(protocols.get_protocol(name)) for name in protocols.available_protocols())
    return tuple(f"{cls.__module__}:{cls.__qualname__}.step" for cls in classes)


_SCIENCE = "designs_per_s on ref-sweep and expanded-imrp"
_RUNTIME = "designs_per_s on expanded-imrp most, ref-sweep next"
_FLEET_IO = "wall_s and run_p90_s on fleet-small-runs; negligible elsewhere"
_FLEET = "fleet_efficiency and wall_s on fleet-small-runs"

#: Every traced boundary, outermost layers first.
LAYERS: Tuple[Layer, ...] = (
    Layer(
        "experiments.execute_run",
        ("repro.experiments.suite:execute_run",),
        "run_p50_s on every workload",
    ),
    Layer(
        "experiments.target_build",
        ("repro.experiments.spec:TargetSpec.build",),
        "wall_s and designs_per_s on ref-sweep and fleet-small-runs; "
        "no change on expanded-imrp",
    ),
    Layer(
        "core.campaign_init",
        ("repro.core.campaign:DesignCampaign.__init__",),
        "designs_per_s on every workload",
    ),
    # Targets filled from the protocol registry at install time.
    Layer("core.protocol_step", (), "designs_per_s on every workload"),
    Layer(
        "protein.mpnn",
        ("repro.protein.mpnn:SurrogateProteinMPNN.generate",),
        _SCIENCE,
        after=lambda args, result, _: {"sequences": len(result)},
        extras=("sequences",),
    ),
    Layer(
        "protein.fold",
        (
            "repro.protein.folding:SurrogateAlphaFold.predict",
            "repro.protein.folding:SurrogateAlphaFold.predict_batch",
        ),
        _SCIENCE,
        after=lambda args, result, _: {
            "structures": len(result) if isinstance(result, list) else 1
        },
        extras=("structures",),
        ratios=(("structures_per_call", "structures", "calls"),),
    ),
    Layer("protein.score", ("repro.protein.scoring:ScoringFunction.score",), _SCIENCE),
    Layer("protein.composite", ("repro.protein.metrics:composite_score",), _SCIENCE),
    Layer("utils.spawn_rng", ("repro.utils.rng:spawn_rng",), _SCIENCE),
    Layer("hpc.event_loop", ("repro.hpc.events:EventLoop.step",), _RUNTIME),
    Layer(
        "hpc.place",
        ("repro.hpc.scheduler:PlacementScheduler.try_place",),
        _RUNTIME,
        after=lambda args, result, _: {"placed": len(result)},
        extras=("placed",),
        ratios=(("placed_ratio", "placed", "calls"),),
    ),
    Layer(
        "runtime.sequential",
        ("repro.runtime.sequential:SequentialRunner.run_task",),
        _RUNTIME,
    ),
    Layer("runtime.submit", ("repro.runtime.agent:Agent.submit",), _RUNTIME),
    Layer(
        "store.append",
        ("repro.store.runstore:RunStore.append",),
        _FLEET_IO,
        before=lambda args: _file_size(args[0].path),
        after=lambda args, result, size: {"bytes": _file_size(args[0].path) - size},
        extras=("bytes",),
    ),
    Layer(
        "store.checkpoint_save",
        ("repro.store.checkpoint:CheckpointStore.save",),
        _FLEET_IO,
        after=lambda args, result, _: {"bytes": _file_size(result)},
        extras=("bytes",),
    ),
    Layer(
        "store.merge",
        ("repro.store.runstore:merge_stores", "repro.store.runstore:prune_store"),
        _FLEET_IO,
    ),
    Layer(
        "utils.atomic_write",
        ("repro.utils.serialization:atomic_write_text",),
        _FLEET_IO,
    ),
    Layer(
        "orchestrate.claim",
        ("repro.orchestrate.lease:try_claim", "repro.orchestrate.lease:try_steal"),
        _FLEET,
        after=lambda args, result, _: {"attempts": 1, "successes": 1 if result else 0},
        extras=("attempts", "successes"),
        ratios=(("success_ratio", "successes", "attempts"),),
    ),
    Layer(
        "orchestrate.poll",
        (
            "repro.orchestrate.queue:WorkQueue.is_done",
            "repro.orchestrate.queue:WorkQueue.is_failed",
        ),
        _FLEET,
    ),
    Layer(
        "orchestrate.mark_done",
        ("repro.orchestrate.queue:WorkQueue.mark_done",),
        _FLEET,
    ),
    Layer(
        "orchestrate.finalize",
        ("repro.orchestrate.coordinator:finalize_queue",),
        _FLEET,
    ),
    # ``bytes`` is the size of the stream files, set after the drain.
    Layer(
        "telemetry.write",
        (
            "repro.telemetry.writer:TelemetryWriter.write_span",
            "repro.telemetry.writer:TelemetryWriter.write_event",
            "repro.telemetry.writer:TelemetryWriter.write_metric",
        ),
        "wall_s and fleet_efficiency on fleet-small-runs only (telemetry is "
        "off elsewhere)",
        after=lambda args, result, _: {"records": 1},
        extras=("records", "bytes"),
    ),
    Layer(
        "faults.failpoint",
        ("repro.faults.registry:failpoint",),
        "disabled crossings: nothing measurable on any workload",
    ),
)

#: Per-layer metrics that no single wrapper produces:
#: ``name -> (unit, better, what it should move)``.
DERIVED: Dict[str, Tuple[str, str, str]] = {
    "orchestrate.worker_idle_s": ("s", "lower", _FLEET),
    "trace.overhead_ratio": ("ratio", "lower", "traced wall_s / untraced wall_s of the same sweep, both probe-scaled"),
    "trace.coverage": ("ratio", "higher", "layer self time / (workers x traced wall_s)"),
}

#: ``(unit, better)`` by metric suffix; other extras are counts of useful work.
_SUFFIX_UNITS: Dict[str, Tuple[str, str]] = {
    "calls": ("count", "lower"),
    "s": ("s", "lower"),
    "self_s": ("s", "lower"),
    "bytes": ("bytes", "lower"),
    "attempts": ("count", "lower"),
    "records": ("count", "lower"),
}


def catalog() -> List[Tuple[str, str, str, str]]:
    """``(name, unit, better, moves)`` for every per-layer metric reported."""
    rows: List[Tuple[str, str, str, str]] = []
    for layer in LAYERS:
        for suffix in ("calls", "s", "self_s") + layer.extras:
            unit, better = _SUFFIX_UNITS.get(suffix, ("count", "higher"))
            rows.append((f"{layer.name}.{suffix}", unit, better, layer.moves))
        for suffix, _, _ in layer.ratios:
            rows.append((f"{layer.name}.{suffix}", "ratio", "higher", layer.moves))
    rows.extend((name, *spec) for name, spec in DERIVED.items())
    return rows


def install(tracer: Tracer, patcher: Patcher) -> None:
    """Wrap every boundary of :data:`LAYERS`; undo with ``patcher.restore()``."""
    for layer in LAYERS:
        for dotted in layer.targets or _protocol_steps():
            owner, attr = _resolve(dotted)

            def wrap(original: Callable, layer: Layer = layer) -> Callable:
                return tracer.wrap(layer.name, original, layer.before, layer.after)

            if isinstance(owner, type):
                patcher.replace_method(owner, attr, wrap)
            else:
                original = getattr(owner, attr)
                patcher.replace_function(original, wrap(original))


def layer_metrics(totals: Dict[str, LayerTotals]) -> Dict[str, float]:
    """``<layer>.calls|.s|.self_s`` plus extras and ratios for every layer."""
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        layer_totals = totals.get(layer.name, LayerTotals())
        metrics[f"{layer.name}.calls"] = float(layer_totals.calls)
        metrics[f"{layer.name}.s"] = layer_totals.seconds
        metrics[f"{layer.name}.self_s"] = layer_totals.self_seconds
        for extra in layer.extras:
            metrics[f"{layer.name}.{extra}"] = layer_totals.extras.get(extra, 0.0)
        for suffix, numerator, denominator in layer.ratios:
            below = (
                layer_totals.calls
                if denominator == "calls"
                else layer_totals.extras.get(denominator, 0.0)
            )
            above = layer_totals.extras.get(numerator, 0.0)
            metrics[f"{layer.name}.{suffix}"] = above / below if below else 0.0
    return metrics
