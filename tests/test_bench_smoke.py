"""Smoke test of the benchmark harness: one traced ``validate`` run and one
untraced run of each of ``spectral-sweep`` and ``correlator-precise``.

The traced run rebinds the package's public functions from outside (see
``bench/tracer.py``), so a change to how ``checks`` calls the routes, or to
how ``green_difference`` differences their values, shows up here as a failed
or incorrect run.
The sweep checks every row of the batched ``trapped-spectral`` route against
its stored reference, and the precise correlator every row of the batched
Matsubara assembly against its own.  No timing is asserted.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _bench_result(workload: str, trace: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_validate_run_is_correct():
    result = _bench_result("validate", "1")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_spectral_sweep_run_is_correct():
    result = _bench_result("spectral-sweep", "0")
    assert result["correct"] is True
    assert result["failed"] == 0


def test_correlator_precise_run_is_correct():
    result = _bench_result("correlator-precise", "0")
    assert result["correct"] is True
    assert result["failed"] == 0
