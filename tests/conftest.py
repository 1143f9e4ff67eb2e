"""Shared test settings.

Property tests run under a derandomized hypothesis profile, so every run
draws the same examples, and with no per-example deadline, since a
time-domain oracle can take longer than hypothesis's default 200 ms.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, deadline=None)
settings.load_profile("reproducible")
