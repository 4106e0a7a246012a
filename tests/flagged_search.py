"""The time-equivalent search as it was when it returned which answers it saw.

``_search`` was :func:`~dseu.equivalents.bisect_indifference` returning
``(t, width, second, first)``, where ``second`` and ``first`` said whether
some probe, in the gallop or after it, answered "second" or "first", and
``time_equivalent_bisect`` asked its end queries from those flags.  Both are
kept as the reference the search that reads the end queries from the
probe's own answers must match, query for query, result for result and
error for error, on every oracle, monotone or not.
"""

import math

from dseu.acts import GridAct, _switch_act
from dseu.equivalents import (
    CEILING_MASS,
    DEFAULT_TOL,
    FALLBACK_HORIZON,
    TimeEquivalent,
    _gallop,
)
from dseu.oracles import Preference, ProtocolError


def _search(probe, ceiling, tol, hint):
    second_below = first_above = math.nan
    if hint is not None:
        second_below, first_above = _gallop(probe, hint, ceiling, tol)

    lo = 0.0
    hi = min(1.0, ceiling)
    while True:
        if not hi <= second_below:
            if hi >= first_above:
                break
            answer = probe(hi)
            if answer is Preference.INDIFFERENT:
                return hi, 0.0, lo > 0.0 or second_below > 0.0, first_above > 0.0
            if answer is Preference.STRICTLY_PREFERS_FIRST:
                break
        if hi >= ceiling:
            return None
        lo, hi = hi, min(hi * 2.0, ceiling)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid <= second_below:
            lo = mid
        elif mid >= first_above:
            hi = mid
        else:
            answer = probe(mid)
            if answer is Preference.INDIFFERENT:
                return mid, 0.0, lo > 0.0 or second_below > 0.0, True
            if answer is Preference.STRICTLY_PREFERS_FIRST:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi), hi - lo, lo > 0.0 or second_below > 0.0, True


def time_equivalent_bisect(oracle, f, x, y, tol=DEFAULT_TOL, rate=None, hint=None):
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    states = f.states
    ceiling = FALLBACK_HORIZON if rate is None else rate.quantile(CEILING_MASS)

    def probe(t):
        return oracle.compare(_switch_act(states, x, t, y), f)

    found = _search(probe, ceiling, tol, hint)
    t, width, second, first = (None, 0.0, True, False) if found is None else found
    top = bottom = Preference.STRICTLY_PREFERS_FIRST
    if not first:
        top = oracle.compare(GridAct.constant(states, x), f)
        if top is Preference.STRICTLY_PREFERS_SECOND:
            raise ProtocolError(f"oracle strictly prefers the act to constant {x!r}")
    if not second:
        bottom = oracle.compare(f, GridAct.constant(states, y))
        if bottom is Preference.STRICTLY_PREFERS_SECOND:
            raise ProtocolError(f"oracle strictly prefers constant {y!r} to the act")
    if bottom is Preference.INDIFFERENT:
        return TimeEquivalent(0.0)
    if top is Preference.INDIFFERENT:
        return TimeEquivalent(None)
    return TimeEquivalent(t, width)
