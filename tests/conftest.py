"""Fixtures shared by the test suites."""

import pytest

from ifhv import IFS


@pytest.fixture
def reference_sets():
    """The paper's reference sets X1, X2, X3 (Table 1)."""
    return [
        IFS.from_pairs([(0.2, 0.4), (0.1, 0.2)]),
        IFS.from_pairs([(0.3, 0.6), (0.4, 0.4)]),
        IFS.from_pairs([(0.2, 0.7), (0.6, 0.3)]),
    ]
