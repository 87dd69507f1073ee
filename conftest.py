"""Put ``src`` on the PYTHONPATH of the processes that tests start.

``pythonpath = ["src"]`` in pyproject.toml reaches the test interpreter
only; a test that runs ``python -c`` needs the package in its child's
environment too.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
