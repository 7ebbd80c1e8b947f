"""Hypothesis profiles for the test suite.

`ci` runs every property with more examples and no per-example deadline;
select it with `HYPOTHESIS_PROFILE=ci`.  Without that variable the
hypothesis defaults hold.
"""

import os

from hypothesis import settings

settings.register_profile("ci", max_examples=500, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
