"""Span arithmetic and binding restoration of the traced repetition."""

import sys

import spans


class FakeClock:
    def __init__(self, *instants):
        self._instants = list(instants)

    def __call__(self):
        return self._instants.pop(0)


def test_self_time_subtracts_nested_spans():
    # hpc.event_loop [0, 10] contains protein.fold [1, 3] and [4, 8];
    # the second fold contains protein.score [5, 6].
    tracer = spans.Tracer(clock=FakeClock(0, 1, 3, 4, 5, 6, 8, 10))
    tracer.enter("hpc.event_loop")
    tracer.enter("protein.fold")
    tracer.exit()
    tracer.enter("protein.fold")
    tracer.enter("protein.score")
    tracer.exit()
    tracer.exit()
    tracer.exit()
    totals = tracer.totals()
    assert totals["hpc.event_loop"].seconds == 10
    assert totals["hpc.event_loop"].self_seconds == 10 - 2 - 4
    assert totals["protein.fold"].calls == 2
    assert totals["protein.fold"].seconds == 6
    assert totals["protein.fold"].self_seconds == 6 - 1
    assert totals["protein.score"].self_seconds == 1
    covered = sum(layer.self_seconds for layer in totals.values())
    assert covered == totals["hpc.event_loop"].seconds


def test_reentered_layer_counts_once_and_splits_self_time():
    # try_steal [0, 10] calling try_claim [2, 5]: one claim attempt.
    tracer = spans.Tracer(clock=FakeClock(0, 2, 5, 10))
    tracer.enter("orchestrate.claim")
    tracer.enter("orchestrate.claim")
    tracer.exit({"attempts": 1})
    tracer.exit({"attempts": 1})
    claim = tracer.totals()["orchestrate.claim"]
    assert claim.calls == 1
    assert claim.seconds == 10
    assert claim.self_seconds == 10
    assert claim.extras == {"attempts": 1}


def test_threads_keep_separate_stacks():
    import threading

    tracer = spans.Tracer()
    traced = tracer.wrap("utils.spawn_rng", lambda value: value * 2)

    def work():
        for value in range(100):
            traced(value)

    threads = [threading.Thread(target=work) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    assert tracer.totals()["utils.spawn_rng"].calls == 400


def _bindings():
    """Identity of every attribute of every ``repro`` module and class."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in vars(module).items():
            seen[(name, attr)] = value
            if isinstance(value, type):
                for member, raw in vars(value).items():
                    seen[(name, attr, member)] = raw
    return seen


def test_install_wraps_every_layer_and_restore_undoes_it():
    import repro.experiments  # noqa: F401 - load the modules the layers name
    import repro.orchestrate  # noqa: F401
    from repro.protein import mpnn
    from repro.utils import rng

    original_spawn = rng.spawn_rng
    before = _bindings()
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    try:
        # A name imported by value is rebound too, and the span records it.
        assert mpnn.spawn_rng is not original_spawn
        assert mpnn.spawn_rng is rng.spawn_rng
        mpnn.spawn_rng(7, "probe")
        assert tracer.totals()["utils.spawn_rng"].calls == 1
    finally:
        patcher.restore()
    after = _bindings()
    changed = sorted(
        str(key) for key in before if key in after and after[key] is not before[key]
    )
    assert changed == []
    assert mpnn.spawn_rng is original_spawn


def test_every_layer_target_resolves_and_is_wrapped():
    tracer, patcher = spans.Tracer(), spans.Patcher()
    spans.install(tracer, patcher)
    try:
        for layer in spans.LAYERS:
            for dotted in layer.targets or spans._protocol_steps():
                owner, attr = spans._resolve(dotted)
                assert getattr(owner, attr).__wrapped__ is not None, dotted
    finally:
        patcher.restore()
