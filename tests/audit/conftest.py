"""Shared audit-test fixture: one traced attacker federation.

The seeded run is :func:`tests.helpers.run_traced`; every audit test
interrogates the same run, so the fixture is session-scoped. Tests that
tamper with events must copy them first.
"""

import copy

import pytest

from tests.helpers import ATTACKER, GAMMA, ROUNDS, THRESHOLD, run_traced

__all__ = ["ATTACKER", "GAMMA", "ROUNDS", "THRESHOLD", "run_traced"]


@pytest.fixture(scope="session")
def traced():
    """(mechanism, chain, events) of the shared attacker run."""
    return run_traced()


@pytest.fixture
def events_copy(traced):
    """A deep copy of the shared events, safe to tamper with."""
    return copy.deepcopy(traced[2])
