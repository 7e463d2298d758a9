"""Tests for serialization, logging and timing utilities."""

from __future__ import annotations

import dataclasses
import enum
import logging
import time

import numpy as np
import pytest

from repro.utils.logging import LOG_LEVEL_ENV, get_logger
from repro.utils.serialization import dump_json, load_json, to_jsonable
from repro.utils.timer import Stopwatch


class Color(enum.Enum):
    RED = "red"


@dataclasses.dataclass
class Point:
    x: float
    y: float


class TestToJsonable:
    def test_passthrough_builtins(self):
        assert to_jsonable({"a": 1, "b": [1.5, "x", None, True]}) == {
            "a": 1,
            "b": [1.5, "x", None, True],
        }

    def test_numpy_scalars_and_arrays(self):
        out = to_jsonable({"s": np.float64(2.5), "a": np.arange(3)})
        assert out == {"s": 2.5, "a": [0, 1, 2]}

    def test_enum(self):
        assert to_jsonable(Color.RED) == "red"

    def test_dataclass(self):
        assert to_jsonable(Point(1.0, 2.0)) == {"x": 1.0, "y": 2.0}

    def test_sets_become_lists(self):
        assert sorted(to_jsonable({1, 2, 3})) == [1, 2, 3]

    def test_as_dict_protocol(self):
        class WithAsDict:
            def as_dict(self):
                return {"k": 1}

        assert to_jsonable(WithAsDict()) == {"k": 1}

    def test_unconvertible_raises(self):
        with pytest.raises(TypeError):
            to_jsonable(object())


class TestDumpLoadJson:
    def test_round_trip(self, tmp_path):
        payload = {"values": [1, 2, 3], "nested": {"x": 1.5}}
        path = dump_json(payload, tmp_path / "out" / "data.json")
        assert path.exists()
        assert load_json(path) == payload


class TestGetLogger:
    def test_idempotent_handlers(self):
        first = get_logger("repro.test.logger")
        second = get_logger("repro.test.logger")
        assert first is second
        assert len(first.handlers) == 1

    def test_default_level_is_info(self, monkeypatch):
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        assert get_logger("repro.test.level.default").level == logging.INFO

    def test_env_level_name_is_honoured(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "debug")
        assert get_logger("repro.test.level.name").level == logging.DEBUG

    def test_env_numeric_level_is_honoured(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "5")
        assert get_logger("repro.test.level.numeric").level == 5

    def test_garbled_env_falls_back_to_info(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "chatty-please")
        assert get_logger("repro.test.level.garbled").level == logging.INFO

    def test_explicit_level_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(LOG_LEVEL_ENV, "DEBUG")
        logger = get_logger("repro.test.level.explicit", level=logging.ERROR)
        assert logger.level == logging.ERROR

    def test_env_change_applies_on_the_next_call(self, monkeypatch):
        """One export re-levels an existing logger — how a fleet operator
        turns up verbosity between worker launches."""
        monkeypatch.delenv(LOG_LEVEL_ENV, raising=False)
        logger = get_logger("repro.test.level.dynamic")
        assert logger.level == logging.INFO
        monkeypatch.setenv(LOG_LEVEL_ENV, "WARNING")
        assert get_logger("repro.test.level.dynamic").level == logging.WARNING


class TestStopwatch:
    def test_measures_positive_time(self):
        watch = Stopwatch()
        watch.start("work")
        time.sleep(0.01)
        elapsed = watch.stop("work")
        assert elapsed > 0
        assert watch.total("work") == pytest.approx(elapsed)

    def test_accumulates_across_laps(self):
        watch = Stopwatch()
        for _ in range(3):
            watch.start("lap")
            watch.stop("lap")
        assert len(watch.laps("lap")) == 3
        assert watch.total("lap") >= 0

    def test_context_manager(self):
        watch = Stopwatch()
        with watch.measure("ctx"):
            pass
        assert watch.total("ctx") >= 0
        assert not watch.running("ctx")

    def test_running_and_elapsed(self):
        watch = Stopwatch()
        assert watch.elapsed("x") is None
        watch.start("x")
        assert watch.running("x")
        assert watch.elapsed("x") >= 0
        watch.stop("x")

    def test_stop_unknown_raises(self):
        with pytest.raises(KeyError):
            Stopwatch().stop("never-started")

    def test_report(self):
        watch = Stopwatch()
        watch.start("a")
        watch.stop("a")
        assert "a" in watch.report()


class TestFormatDuration:
    def test_sub_minute_keeps_decimals(self):
        from repro.utils.timer import format_duration

        assert format_duration(0.25) == "0.25s"
        assert format_duration(37.251) == "37.25s"

    def test_h_m_s_style(self):
        from repro.utils.timer import format_duration

        assert format_duration(9251) == "2h 34m 11s"
        assert format_duration(60) == "1m 0s"
        assert format_duration(3600) == "1h 0m 0s"
        assert format_duration(90061) == "1d 1h 1m 1s"

    def test_negative_is_signed(self):
        from repro.utils.timer import format_duration

        assert format_duration(-61) == "-1m 1s"
