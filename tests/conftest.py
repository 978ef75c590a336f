"""Hypothesis profiles.

Local runs use Hypothesis' default profile. The first tier-1 step in CI passes
``--hypothesis-profile=ci``, which runs every property test on 4× its own
example count: 400 for a test that sets none, 600 for one that sets 150.
"""

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
