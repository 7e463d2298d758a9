"""The packaging metadata in ``setup.py`` names every ``repro`` package.

Runs ``setup.py`` with ``setuptools.setup`` replaced by a recorder, so the
check needs neither the network nor an install.
"""

from __future__ import annotations

import runpy
from pathlib import Path

import setuptools

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _setup_kwargs(monkeypatch) -> dict:
    captured: dict = {}
    monkeypatch.setattr(setuptools, "setup", lambda **kwargs: captured.update(kwargs))
    runpy.run_path(str(REPO_ROOT / "setup.py"), run_name="__main__")
    return captured


def test_setup_names_the_repro_distribution(monkeypatch):
    kwargs = _setup_kwargs(monkeypatch)
    assert kwargs["name"] == "repro"
    assert kwargs["version"] == repro.__version__
    assert kwargs["package_dir"] == {"": "src"}
    assert kwargs["install_requires"] == ["numpy"]


def test_setup_packages_every_src_package(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)  # find_packages("src") is cwd-relative
    kwargs = _setup_kwargs(monkeypatch)
    src = REPO_ROOT / "src"
    expected = {
        ".".join(init.parent.relative_to(src).parts)
        for init in src.glob("repro/**/__init__.py")
    }
    assert "repro.experiments" in expected and "repro.orchestrate" in expected
    assert sorted(kwargs["packages"]) == sorted(expected)
