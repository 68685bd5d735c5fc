"""Shared test configuration.

Every hypothesis property runs derandomized (the same examples on every
run), writes no example database, and has no per-example deadline, so a
slow or busy host cannot fail it on timing.  Tests set only `max_examples`.
"""

from hypothesis import settings

settings.register_profile("stwdiff", derandomize=True, database=None, deadline=None)
settings.load_profile("stwdiff")
