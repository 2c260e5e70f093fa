import os
import subprocess
import sys
from pathlib import Path

import pytest

import trapgas


@pytest.fixture
def fresh_python():
    """Run Python source in a new interpreter that imports this trapgas, and
    return its standard output: what a module loads on import is only visible
    in a process that has not loaded it yet."""
    src = str(Path(trapgas.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run(code: str) -> str:
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    return run
