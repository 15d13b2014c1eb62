"""Hypothesis profiles for the stream-plane property suites.

Tier-1 runs the bounded ``"tier1"`` profile.  ``HYPOTHESIS_PROFILE=ci``
selects the larger ``"ci"`` profile, which the ``stream-soak`` CI job uses
for the session-fleet property suite.  Hypothesis tests elsewhere set their
own ``max_examples`` and are unaffected.
"""

import os

from hypothesis import HealthCheck, settings

settings.register_profile("tier1", max_examples=40, deadline=None)
settings.register_profile(
    "ci",
    max_examples=2000,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
