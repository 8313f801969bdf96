"""Benchmark fixtures (helpers live in paperbench)."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# The per-record reference decoder the decode-leg benches time the
# shipped engine against is the test suite's oracle.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from paperbench import PaperComparison  # noqa: E402


@pytest.fixture
def comparison(request):
    """A PaperComparison that prints itself when the test ends."""
    table = PaperComparison(title=request.node.name)
    yield table
    if table.rows:
        table.emit()
