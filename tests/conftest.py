"""Hypothesis profiles for the test suite.

`tier1`, the default, makes every verdict a function of the commit: each
property draws the same examples on every run, and no example database
carries one checkout's failures into its later runs.  `explore` draws at
random and keeps the database; choose it with
`pytest --hypothesis-profile=explore`.
"""
from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None,
                          print_blob=True)
settings.register_profile("explore", derandomize=False)
if settings.get_current_profile_name() == "default":
    settings.load_profile("tier1")
