import os

from hypothesis import settings

# fixed example sequence and no per-example deadline: property tests give
# the same verdict on every run and on a slow or shared machine
settings.register_profile("fqed", derandomize=True, deadline=None)
# HYPOTHESIS_PROFILE=fqed-random: fresh random examples, ten times as many
# (pytest_collection_modifyitems below), and each failure printed with the
# blob that reproduces it
settings.register_profile("fqed-random", derandomize=False, deadline=None,
                          print_blob=True)
PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "fqed")
settings.load_profile(PROFILE)


def pytest_collection_modifyitems(items):
    """Under fqed-random, every property test runs ten times its own
    example count, once per test function however it is parametrized."""
    if PROFILE != "fqed-random":
        return
    seen = set()
    for item in items:
        # a method's settings live on its function
        test = getattr(item.obj, "__func__", item.obj)
        if not getattr(test, "is_hypothesis_test", False) or id(test) in seen:
            continue
        seen.add(id(test))
        own = test._hypothesis_internal_use_settings
        test._hypothesis_internal_use_settings = settings(
            own, max_examples=10 * own.max_examples)
