"""Shared fixtures: the exhaustive small-n enumeration is computed once per
session and reused by the structural, oracle, and acceptance tests.

A terminal-summary hook prints one PASS/FAIL line per acceptance criterion
at the end of every run.
"""

import warnings
from contextlib import suppress

import pytest
from hypothesis import settings

from gallai import enumerate_gallai

pytest_plugins = ["pytester"]

# When a property test fails, Hypothesis imports libcst to print an @example
# patch.  libcst 1.0.1 then warns on mypy_extensions.TypedDict, and under
# filterwarnings = ["error"] that warning ends the run with INTERNALERROR.
# Importing libcst once here, with that warning ignored, leaves the failure
# to be reported as one.  Where libcst is missing, Hypothesis skips the patch.
with warnings.catch_warnings(), suppress(ImportError):
    warnings.filterwarnings("ignore", category=DeprecationWarning)
    import libcst  # noqa: F401

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

ENUMERATION_FIXTURE_MAX_N = 5


@pytest.fixture(scope="session")
def enumerated():
    """All Gallai colorings of K_n up to color relabeling, n = 1..5."""
    return {n: list(enumerate_gallai(n)) for n in range(1, ENUMERATION_FIXTURE_MAX_N + 1)}


def _criterion_rows(terminalreporter):
    rows = {}
    for outcome in ("passed", "failed"):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance.py::test_criterion_" not in nodeid:
                continue
            if getattr(report, "when", "call") != "call":
                continue
            name = nodeid.split("::")[-1]
            parts = name.split("_")  # test, criterion, NN, words...
            rows[name] = (parts[2], " ".join(parts[3:]), outcome.upper())
    return [rows[name] for name in sorted(rows)]


def pytest_terminal_summary(terminalreporter):
    rows = _criterion_rows(terminalreporter)
    if not rows:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, label, outcome in rows:
        status = "PASS" if outcome == "PASSED" else "FAIL"
        terminalreporter.write_line(f"criterion {number}: {status} ({label})")
