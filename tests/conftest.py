import os
import sys

import pytest

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
