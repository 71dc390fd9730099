"""Puts the benchmark modules and the package sources on sys.path for these tests.

A helper module rather than a conftest.py: the package's own tests import
their conftest by name, and a second conftest would shadow it when both
suites run in one pytest invocation.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)
