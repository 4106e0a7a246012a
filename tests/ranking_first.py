"""The half-life search as it was when the ranking query came first.

``elicit_lambda`` asked constant ``x`` against constant ``y`` before the
first probe and raised unless the oracle strictly preferred ``x``.  It is
kept as the reference the search that asks the ranking only when its probes
leave it open must match, result for result and error for error, on
oracles whose answers are weakly monotone in the switch time, with the
ranking query moved behind the probes or dropped.
"""

import math

from dseu.acts import GridAct, _switch_act
from dseu.equivalents import DEFAULT_TOL, FALLBACK_HORIZON, bisect_indifference
from dseu.measure import ExpMeasure
from dseu.oracles import Preference, ProtocolError


def elicit_lambda(oracle, x, y, tol=DEFAULT_TOL):
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    states = oracle.states
    ranked = oracle.compare(GridAct.constant(states, x), GridAct.constant(states, y))
    if ranked is not Preference.STRICTLY_PREFERS_FIRST:
        raise ProtocolError(
            f"half-life query needs a strict preference for {x!r} over {y!r}, got {ranked.name}"
        )

    def probe(t):
        return oracle.compare(_switch_act(states, x, t, y), _switch_act(states, y, t, x))

    found = bisect_indifference(probe, FALLBACK_HORIZON, tol)
    if found is None:
        raise ProtocolError(
            f"no half-life indifference up to the search ceiling {FALLBACK_HORIZON:g}"
        )
    return ExpMeasure(math.log(2.0) / found[0])
