"""Acceptance gate: every cross-validation criterion at its pinned tolerance.

Each test prints one pass/fail line; the suite is the package's exit
criterion and runs the same checks as ``trapgas validate``.
"""

import pytest

from trapgas.checks import CHECKS, run_check


# one test per registered check, named after its function
@pytest.mark.parametrize("name", list(CHECKS), ids=lambda name: CHECKS[name][0].__name__)
def test_acceptance_criterion(name):
    result = run_check(name)
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name}: value={result.value:.6g} tol={result.tol:g} "
          f"({result.seconds:.2f}s) {result.detail}")
    assert result.passed, f"{result.name}: value {result.value:.6g} exceeds tolerance {result.tol:g}; {result.detail}"
