"""PEP 562 lazy re-exports for package namespaces.

A package re-exports some public names from modules that no run executes
(reports, harnesses, CLIs' helpers).  Importing those modules eagerly would
make every fresh worker process pay for them, so the package instead lists
them here and resolves each one on first attribute access::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.genetic": ("GeneticConfig", "GeneticOptimizer"),
    })

The first ``pkg.GeneticConfig`` imports ``repro.core.genetic`` and caches the
value in the package namespace, so later lookups are plain dictionary hits.
``__all__`` is left to the package and still lists every public name, so
``from pkg import *`` and ``dir(pkg)`` are unchanged; an unknown name raises
:class:`AttributeError` as usual.

Only names whose modules are off every run path belong here.  A run-path
module stays an eager import: deferring it would only move its import cost
from process start into the timed run.

This module imports nothing from :mod:`repro`, so ``import repro`` stays
cheap.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], modules: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``(__getattr__, __dir__)`` pair resolving ``modules``' names lazily.

    ``namespace`` is the package's ``globals()``; ``modules`` maps each
    defining module's absolute name to the names the package re-exports
    from it.
    """
    package = namespace["__name__"]
    owners = {name: module for module, names in modules.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return __getattr__, __dir__
