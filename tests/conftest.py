"""Subprocesses started by the tests import volgap from this checkout.

pytest's `pythonpath` setting covers this process only; the CLI tests
that spawn `python -m volgap.cli` get the same path through the
environment.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
