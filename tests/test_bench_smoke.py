"""Smoke test of the benchmark harness: one traced ``validate`` run.

The traced run rebinds the package's public functions from outside (see
``bench/tracer.py``), so a change to how ``checks`` calls the routes, or to
``green_difference``'s evaluator, shows up here as a failed or incorrect run.
No timing is asserted.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_validate_run_is_correct():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "validate",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
