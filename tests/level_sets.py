"""Level sets of step profiles, for tests that compare masses of times."""

from dseu.measure import TimeSet


def level_set(profile, outcome) -> TimeSet:
    """Times at which ``profile`` pays ``outcome``."""
    return TimeSet.from_pairs((lo, hi) for lo, hi, out in profile.segments() if out == outcome)
