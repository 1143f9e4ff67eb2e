"""Shared test settings.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples, and with no per-example deadline, since a
time-domain oracle can take longer than hypothesis's default 200 ms.
``HYPOTHESIS_PROFILE=long`` selects a randomized profile with many more
examples per property instead, for a search beyond the fixed examples.
"""

import os

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.register_profile("long", deadline=None, max_examples=5000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "reproducible"))
