"""The suite runs the same whatever the caller's shell exports: each test
starts with no ILWHODGE_* variable, and a test that needs one sets it.  And
whatever a test patches, it leaves no public name bound on the package."""

import os

import pytest

import ilwhodge


@pytest.fixture(autouse=True)
def _package_binds_no_public_name(monkeypatch):
    # ilwhodge.<name> resolves through the package's __getattr__; a name left
    # in its namespace (monkeypatch's undo restores what __getattr__ returned)
    # would shadow the module's own binding for every later test.  The test's
    # patches are undone first, as its teardown would.
    yield
    monkeypatch.undo()
    namespace = vars(ilwhodge)
    left = [name for name in ilwhodge._HOME if name in namespace]
    for name in left:  # so that no later test fails for it
        del namespace[name]
    assert left == [], f"the test left {left} bound in vars(ilwhodge)"


@pytest.fixture(autouse=True)
def _no_ilwhodge_variables(monkeypatch):
    for name in [name for name in os.environ if name.startswith("ILWHODGE_")]:
        monkeypatch.delenv(name)
