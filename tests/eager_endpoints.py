"""The oracle search as it was when both end queries came before the probes.

``time_equivalent_bisect`` asked constant ``x`` against the act, then the
act against constant ``y``, raising or returning on those answers before
the first probe.  It is kept as the reference the search with its end
queries asked after the probes must match, result for result and error for
error, on oracles whose answers are weakly monotone in the prefix length,
with no more queries.
"""

from dseu.acts import GridAct, _switch_act
from dseu.equivalents import (
    CEILING_MASS,
    DEFAULT_TOL,
    FALLBACK_HORIZON,
    TimeEquivalent,
    bisect_indifference,
)
from dseu.oracles import Preference, ProtocolError


def time_equivalent_bisect(oracle, f, x, y, tol=DEFAULT_TOL, rate=None, hint=None):
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    states = f.states
    top = oracle.compare(GridAct.constant(states, x), f)
    if top is Preference.STRICTLY_PREFERS_SECOND:
        raise ProtocolError(f"oracle strictly prefers the act to constant {x!r}")
    bottom = oracle.compare(f, GridAct.constant(states, y))
    if bottom is Preference.STRICTLY_PREFERS_SECOND:
        raise ProtocolError(f"oracle strictly prefers constant {y!r} to the act")
    if bottom is Preference.INDIFFERENT:
        return TimeEquivalent(0.0)
    if top is Preference.INDIFFERENT:
        return TimeEquivalent(None)

    ceiling = FALLBACK_HORIZON if rate is None else rate.quantile(CEILING_MASS)

    def probe(t):
        return oracle.compare(_switch_act(states, x, t, y), f)

    found = bisect_indifference(probe, ceiling, tol, hint)
    return TimeEquivalent(None) if found is None else TimeEquivalent(*found)
