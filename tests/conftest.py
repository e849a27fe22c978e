"""Session-wide hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property test, so the
examples a run draws follow from the test alone and a failure seen in a
CI log replays locally, and prints the reproduction blob on failure.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
