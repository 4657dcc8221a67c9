"""Hypothesis settings for the suite: every run draws the same examples
(statistical checks keep frozen seeds), and the example count is bounded so
property tests fit the tier-1 time budget."""

from hypothesis import settings

settings.register_profile("palab", derandomize=True, deadline=None, max_examples=40, database=None)
settings.load_profile("palab")
