from concurrent.futures import Future

import pytest

from riskscale.verify import builtin_verify_suite


@pytest.fixture(scope="session")
def verify_seed42():
    """The full verification suite at its documented seed 42, on one worker.

    Run once per session and shared by every test that only inspects the
    result; the report is frozen, so no test can alter it for the next.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("RISKSCALE_THREADS", "1")
        return builtin_verify_suite(seed=42)


class InlinePool:
    """Stands in for ThreadPoolExecutor: runs each call when it is submitted.

    Records the pool sizes asked for and counts submissions, so a test can
    check the thread count and the calls in flight without starting a thread.
    """

    def __init__(self):
        self.sizes = []
        self.submitted = 0

    def __call__(self, max_workers):
        self.sizes.append(max_workers)
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        future = Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace rng's thread pool by an InlinePool and return it."""
    from riskscale import rng

    pool = InlinePool()
    monkeypatch.setattr(rng, "ThreadPoolExecutor", pool)
    return pool
