from hypothesis import settings

# The same examples on every run: property tests are reproducible and their
# run time does not depend on what a random draw happens to hit.
settings.register_profile("tsnmf", derandomize=True, deadline=None)
settings.load_profile("tsnmf")
