"""Packaging for the ``repro`` library (``src`` layout).

``pip install -e .`` (or ``pip install .``) installs the ``repro`` package
and every subpackage under ``src/``; NumPy is the only runtime dependency.
All packaging metadata lives here: the project has no ``pyproject.toml``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).resolve().parent / "src" / "repro" / "__init__.py"
_VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.MULTILINE)

setup(
    name="repro",
    version=_VERSION.group(1),
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
