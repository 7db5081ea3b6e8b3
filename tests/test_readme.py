"""The library example in README.md runs as written."""

from __future__ import annotations

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_example():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 10 and result.failed == 0
