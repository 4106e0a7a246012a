"""The common refinement of several rows and time sets, the reference the one-pass sweeps match."""

from dseu.measure import INF


def refine(profiles, time_sets=()):
    """Cells ``(lo, hi, outcomes, inside)`` of the common refinement, in time order.

    The cuts are every cut of any profile and every finite bound > 0 of any
    time set.  ``outcomes[i]`` is what ``profiles[i]`` pays on ``[lo, hi)``
    and ``inside[j]`` whether ``time_sets[j]`` holds it.  One sort of all
    bounds and one pass over them, so no row is looked up again per cell.
    """
    n = len(profiles)
    events = [(lo, i, x) for i, p in enumerate(profiles) for lo, x in zip((0.0, *p.cuts), p.outs)]
    for j, ts in enumerate(time_sets, n):
        for lo, hi in ts:
            events.append((lo, j, True))
            if hi < INF:
                events.append((hi, j, False))
    # Bounds of one row or one canonical set never repeat, so ties on
    # (time, index) cannot happen and the sort never compares values.
    events.sort()
    now = [False] * (n + len(time_sets))
    lo = 0.0
    for t, k, value in events:
        if t > lo:
            yield lo, t, tuple(now[:n]), tuple(now[n:])
            lo = t
        now[k] = value
    yield lo, INF, tuple(now[:n]), tuple(now[n:])
