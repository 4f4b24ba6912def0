"""Test-wide settings.

Hypothesis runs derandomized, with no deadline and no example database, so
every run of the suite tries the same examples and a slow shared host
cannot fail a test on time alone.
"""

from hypothesis import settings

settings.register_profile("deterministic", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("deterministic")
