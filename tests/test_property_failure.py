"""A failing property test is reported as a failure and the run goes on.

On failure Hypothesis imports libcst, whose import warns; with warnings as
errors that used to end the whole run in INTERNALERROR.  ``conftest.py``
imports libcst first, with the warning ignored.
"""

from hypothesis.configuration import set_hypothesis_home_dir

PROPERTY_TESTS = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_end_the_run(pytester):
    pytester.makepyfile(PROPERTY_TESTS)
    # the failure's @example patch goes under the sub-session's directory
    set_hypothesis_home_dir(pytester.path / ".hypothesis")
    try:
        result = pytester.runpytest("-W", "error", "-p", "no:cacheprovider")
    finally:
        set_hypothesis_home_dir(None)
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
