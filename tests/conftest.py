"""Fixtures shared by the test modules."""

import pytest

from icodes import construction


@pytest.fixture
def no_spot_check(monkeypatch):
    """Skip enumerate_code's sampled agreement check, for the sweeps that
    compare whole tables against slower references; the check itself is
    tested on its own and runs everywhere else."""
    monkeypatch.setattr(construction, "_spot_check", lambda ds: None)
