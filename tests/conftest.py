from hypothesis import settings

# fixed example sequence and no per-example deadline: property tests give
# the same verdict on every run and on a slow or shared machine
settings.register_profile("fqed", derandomize=True, deadline=None)
settings.load_profile("fqed")
