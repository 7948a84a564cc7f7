"""Suite-wide test configuration.

Property tests run under a derandomized hypothesis profile: every machine
draws the same examples, no example database is written, and no per-example
deadline applies, so timing noise cannot fail a test.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
