"""Fixtures shared by more than one unit-test module."""

from dataclasses import replace

import pytest

from repro import systems


@pytest.fixture
def fifth_system(monkeypatch):
    """DESIGN.md §2's litmus: a fifth row (a renamed copy of TAPIR's),
    registered for one test."""
    row = replace(systems.TABLE["tapir"], name="tapir-2", label="TAPIR 2")
    monkeypatch.setitem(systems.TABLE, row.name, row)
    return row.name
