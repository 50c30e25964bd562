"""Shared pytest setup.

With the ``CI`` environment variable set, hypothesis loads the ``ci``
profile: examples derive from each test's name instead of a random seed,
so a property run is the same on every CI job, and no example has a
deadline.  Per-test ``@settings`` still set ``max_examples``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
