"""Make ``src/`` and the benchmark's own modules importable for
``pytest benchmarks/e2e`` without a ``PYTHONPATH``."""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
