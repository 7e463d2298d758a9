"""Shared utilities: deterministic RNG streams, statistics, logging, timing."""

from repro.utils.rng import RNGRegistry, derive_seed, spawn_rng
from repro.utils.stats import (
    SummaryStats,
    bootstrap_ci,
    median_and_spread,
    net_delta_percent,
    summarize,
)
from repro.utils.timer import Stopwatch
from repro.utils.retrying import DEFAULT_RETRY_POLICY, RetryPolicy, call_with_retries
from repro.utils.serialization import to_jsonable, dump_json, load_json
from repro._lazy import lazy_exports

# No run logs, so ``get_logger`` resolves lazily (PEP 562, :mod:`repro._lazy`)
# and the stdlib ``logging`` import stays out of worker processes.
__getattr__, __dir__ = lazy_exports(globals(), {"repro.utils.logging": ("get_logger",)})

__all__ = [
    "RNGRegistry",
    "derive_seed",
    "spawn_rng",
    "SummaryStats",
    "bootstrap_ci",
    "median_and_spread",
    "net_delta_percent",
    "summarize",
    "Stopwatch",
    "DEFAULT_RETRY_POLICY",
    "RetryPolicy",
    "call_with_retries",
    "get_logger",
    "to_jsonable",
    "dump_json",
    "load_json",
]
