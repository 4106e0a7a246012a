"""Shared test settings.

``--hypothesis-profile=ci`` runs every property test that does not fix its
own example count with 1,000 examples and no deadline.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, deadline=None)
