import pytest

from riskscale.verify import builtin_verify_suite


@pytest.fixture(scope="session")
def verify_seed42():
    """The full verification suite at its documented seed 42, on one worker.

    Run once per session and shared by every test that only inspects the
    result; the report is frozen, so no test can alter it for the next.
    """
    return builtin_verify_suite(seed=42, workers=1)
