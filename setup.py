"""Setuptools shim.

The project declares no package metadata here or anywhere else (the
repository has no ``pyproject.toml`` or ``setup.cfg``).  Nothing needs
installing: every entry point runs from the repository root with
``PYTHONPATH=src`` (README.md), and the dependencies are the ones the
tier-1 CI job installs (``.github/workflows/ci.yml``).
"""

from setuptools import setup

setup()
