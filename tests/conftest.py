"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import hazard_transform

#: The directory the suite imports ``hazard_transform`` from.
PACKAGE_ROOT = str(Path(hazard_transform.__file__).resolve().parents[1])


@pytest.fixture
def child_pythonpath(monkeypatch):
    """Put the suite's package directory first on ``PYTHONPATH``, so child
    processes import the same ``hazard_transform`` without an install:
    pytest's ``pythonpath`` setting reaches only the test process."""
    inherited = os.environ.get("PYTHONPATH")
    paths = [PACKAGE_ROOT] + ([inherited] if inherited else [])
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(paths))
