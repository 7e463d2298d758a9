"""Every ``repro`` package keeps its whole public surface, lazy names included.

Some package namespaces resolve names lazily (:mod:`repro._lazy`).  For each
package, every ``__all__`` name must resolve through ``getattr`` to the very
object its defining module holds, ``from pkg import *`` and ``dir(pkg)``
must see all of ``__all__``, and an unknown name must still raise
:class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    name for _, name, is_package in pkgutil.walk_packages(repro.__path__, "repro.")
    if is_package
)

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


def _module_names() -> list:
    return [name for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")]


def _defining_module(name: str, value: object, package: ModuleType) -> ModuleType:
    """The module that defines ``name``: a class's or function's own module,
    else the (non-package) module whose ``__all__`` lists it."""
    owner = getattr(value, "__module__", None)
    if isinstance(owner, str) and owner.startswith("repro"):
        module = importlib.import_module(owner)
        if hasattr(module, name):
            return module
    for module_name in _module_names():
        if module_name in PACKAGES or module_name.endswith(".__main__"):
            continue
        module = importlib.import_module(module_name)
        if name in getattr(module, "__all__", ()):
            return module
    return package  # defined by the package itself, e.g. ``__version__``


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_are_their_defining_modules_objects(package_name):
    package = importlib.import_module(package_name)
    for name in package.__all__:
        value = getattr(package, name)
        owner = _defining_module(name, value, package)
        assert value is getattr(owner, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_star_import_and_dir_see_all_names(package_name):
    package = importlib.import_module(package_name)
    namespace: dict = {}
    exec(f"from {package_name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))


@pytest.mark.parametrize("package_name", PACKAGES)
def test_unknown_name_raises_attribute_error(package_name):
    package = importlib.import_module(package_name)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    assert not hasattr(package, "no_such_name")


#: Run in a fresh interpreter with the package names as ``argv[1]`` (JSON):
#: import every package, note which ``__all__`` names are still unbound and
#: whether ``dir()`` lists them, star-import every package, then find, for
#: each lazy name, a (non-package) module holding the very same object.
_FRESH_CHECK = """
import importlib, json, sys

modules = [importlib.import_module(name) for name in json.loads(sys.argv[1])]
lazy = {m.__name__: [n for n in m.__all__ if n not in vars(m)] for m in modules}
undir = [f"{m.__name__}.{n}" for m in modules for n in m.__all__ if n not in dir(m)]
unstarred = []
for module in modules:
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    unstarred += [f"{module.__name__}.{n}" for n in module.__all__ if n not in namespace]
mismatched = []
for package, names in lazy.items():
    for name in names:
        value = getattr(sys.modules[package], name)
        if not any(
            module_name.startswith("repro.")
            and not hasattr(module, "__path__")
            and vars(module).get(name) is value
            for module_name, module in list(sys.modules.items())
        ):
            mismatched.append(f"{package}.{name}")
print(json.dumps(
    {"lazy": lazy, "undir": undir, "unstarred": unstarred, "mismatched": mismatched}
))
"""


def test_lazy_names_resolve_in_a_fresh_interpreter():
    """Here the lazy names really go through ``__getattr__`` and ``__dir__``
    (this process resolved them long ago): see :data:`_FRESH_CHECK`."""
    completed = subprocess.run(
        [sys.executable, "-c", _FRESH_CHECK, json.dumps(PACKAGES)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
        check=True,
    )
    report = json.loads(completed.stdout.strip().splitlines()[-1])
    assert report["undir"] == []
    assert report["unstarred"] == []
    assert report["mismatched"] == []
    # The whole top-level namespace and the analysis layer are lazy; the
    # other packages defer only their off-path modules' names.
    assert set(report["lazy"]["repro"]) == set(repro.__all__) - {"__version__"}
    assert set(report["lazy"]["repro.analysis"]) == set(repro.analysis.__all__)
    assert set(report["lazy"]["repro.orchestrate"]) == {
        "ChaosReport", "ScalingRun", "run_chaos", "run_scaling_study"
    }
    assert report["lazy"]["repro.experiments"] == []
