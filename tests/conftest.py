"""Hypothesis profiles, and a check that no test leaves a thread running.

Local runs use Hypothesis' default profile. The first tier-1 step in CI passes
``--hypothesis-profile=ci``, which runs every property test on 4× its own
example count: 400 for a test that sets none, 600 for one that sets 150.
"""

import _thread
import threading

import pytest
from hypothesis import settings

CI_EXAMPLES_FACTOR = 4

settings.register_profile("ci", print_blob=True)


def pytest_collection_modifyitems(config, items):
    if config.getoption("hypothesis_profile", None) != "ci":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "obj", None)
        # the settings @given runs the test with, read when the test is called
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is None or test in scaled:
            continue  # not a property test, or a parametrized one already scaled
        scaled.add(test)
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=CI_EXAMPLES_FACTOR * own.max_examples
        )


@pytest.fixture(autouse=True)
def _no_thread_outlives_its_test():
    """Fail a test after which more threads run than before it. While any
    thread runs, ``parallel._processes()`` is 1, so one left running would make
    every later test run its maps on one process, and fail far from its cause."""
    before, threads = _thread._count(), set(threading.enumerate())
    yield
    if _thread._count() > before:
        running = [t.name for t in threading.enumerate() if t not in threads]
        pytest.fail(f"threads still running after the test: {', '.join(running)}")
