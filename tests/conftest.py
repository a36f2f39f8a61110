"""pyproject.toml puts the checkout's src on sys.path for the tests;
tests that start the CLI in a subprocess get it through PYTHONPATH."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
