import os
import sys

import pytest

from queerdual import coord_alg, duality
from queerdual.superlinalg import SOp

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def sop_sub_calls(monkeypatch):
    """A list that grows by one entry per SOp.__sub__ call."""
    calls = []
    sub = SOp.__sub__

    def counting(self, other):
        calls.append(1)
        return sub(self, other)

    monkeypatch.setattr(SOp, "__sub__", counting)
    return calls


@pytest.fixture
def fresh_census():
    """isotypic_census with an empty memo, emptied again afterwards: a run under a
    patch neither reads a census computed without it nor leaves one behind."""
    duality._census.cache_clear()
    yield duality.isotypic_census
    duality._census.cache_clear()


@pytest.fixture
def fresh_components():
    """graded_component with an empty memo, emptied again afterwards: a component
    left by an earlier test neither hides this test's work nor outlives a patch."""
    coord_alg._graded_component.cache_clear()
    yield coord_alg.graded_component
    coord_alg._graded_component.cache_clear()
