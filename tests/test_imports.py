"""The package loads nothing it does not declare: numpy, click and the stdlib."""

import os
import subprocess
import sys
from pathlib import Path

import ifhv

# Modules the interpreter has loaded before the import (site hooks and .pth
# files of the environment) are not the package's doing, so they are left out.
SCRIPT = """
import sys
before = set(sys.modules)
import ifhv, ifhv.cli
print(" ".join(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_declared_dependencies():
    src = str(Path(ifhv.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    loaded = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "ifhv" in loaded and "numpy" in loaded
    assert set(loaded) - set(sys.stdlib_module_names) - {"numpy", "click", "ifhv"} == set()
