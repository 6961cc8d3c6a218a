"""The package import: one path per name, every library module loaded."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
LIBRARY = ["arrayio", "config", "dataset", "errors", "green", "homogenization",
           "microstructure", "plate", "solver", "voigt"]


def test_import_loads_the_library_modules_and_not_the_cli():
    # A fresh interpreter, so no other test's imports are counted.
    probe = "import sys, microhom; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    loaded = [m for m in run.stdout.split() if m.startswith("microhom.")]
    assert loaded == [f"microhom.{name}" for name in LIBRARY]
