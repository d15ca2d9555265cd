"""The suite runs the same whatever the caller's shell exports: each test
starts with no ILWHODGE_* variable, and a test that needs one sets it."""

import os

import pytest


@pytest.fixture(autouse=True)
def _no_ilwhodge_variables(monkeypatch):
    for name in [name for name in os.environ if name.startswith("ILWHODGE_")]:
        monkeypatch.delenv(name)
