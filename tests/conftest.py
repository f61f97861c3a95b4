"""Hypothesis runs derandomized and keeps no example database, so that every
test run draws the same examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
