"""The set-keyed event families and session the mask plan of ``elicitation`` replaced.

``subset_families`` and ``elicit_measure`` are the frozenset versions, kept
as the reference the plan and the mask-keyed session must match in order
and bit for bit.  ``BUILDERS`` are the act builders the session called
before its probe, constant and bet acts were built directly: every probe
through ``before_after`` and ``deterministic``, constants through
``deterministic``, and each bet's event copied into a new set.
"""

import itertools
import math

from dseu import elicitation, equivalents
from dseu.acts import GridAct, StepProfile
from dseu.elicitation import ElicitationReport
from dseu.equivalents import DEFAULT_TOL
from dseu.oracles import CountingOracle, subsets

from left_sum import left_sum


def subset_families(states):
    """Subsets to elicit and the disjoint pairs to audit.

    Up to 10 states every subset is elicited and every disjoint pair of
    nonempty subsets is audited; beyond that only singletons and their
    pairwise unions are used.
    """
    if len(states) <= 10:
        events = subsets(states)
        pairs = [
            (e, f)
            for e, f in itertools.combinations([s for s in events if s], 2)
            if e.isdisjoint(f)
        ]
        return events, pairs
    singletons = [frozenset({s}) for s in states]
    pairs = [
        (frozenset({a}), frozenset({b})) for a, b in itertools.combinations(states, 2)
    ]
    events = singletons + [e | f for e, f in pairs]
    return events, pairs


def elicit_measure(oracle, rate, x, y, tol=DEFAULT_TOL):
    """The session's event phase on frozenset keys.

    An event of two or more states is hinted from the mean, over its states
    in ``states`` order, of ``mu_hat[e - {s}] + mu_hat[{s}]``; the last
    state's singleton from one minus the other singletons, when that lies
    strictly between 0 and 1.
    """
    counting = CountingOracle(oracle)
    states = oracle.states
    events, pairs = subset_families(states)
    mu_hat = {}
    for e in events:
        hint = None
        if len(e) >= 2:
            total = 0.0
            for s in states:
                if s in e:
                    total += mu_hat[e - {s}] + mu_hat[frozenset({s})]
            p = total / len(e)
            if p < 1.0:
                hint = -math.log1p(-p) / rate.rate
        elif e == frozenset(states[-1:]):
            p = 1.0 - left_sum(mu_hat[frozenset({s})] for s in states[:-1])
            if 0.0 < p < 1.0:
                hint = -math.log1p(-p) / rate.rate
        mu_hat[e] = elicitation.elicit_event(counting, rate, e, x, y, tol, hint)
    residuals = {(e, f): mu_hat[e | f] - mu_hat[e] - mu_hat[f] for e, f in pairs}
    return ElicitationReport(
        lambda_hat=rate.rate,
        mu_hat=mu_hat,
        additivity_residuals=residuals,
        query_count=counting.count,
    )


def switch_act(states, early, t, late):
    return GridAct.deterministic(states, StepProfile.before_after(early, t, late))


def constant(cls, states, outcome):
    return cls.deterministic(states, StepProfile.constant(outcome))


def bet(cls, states, on, win, lose):
    event = set(on)
    rows = {lose: StepProfile.constant(lose), win: StepProfile.constant(win)}
    won, lost = rows[win], rows[lose]
    return cls({s: won if s in event else lost for s in states})


#: ``(owner, name, reference)`` for ``monkeypatch.setattr``.
BUILDERS = (
    (equivalents, "_switch_act", switch_act),
    (elicitation, "_switch_act", switch_act),
    (GridAct, "constant", classmethod(constant)),
    (GridAct, "bet", classmethod(bet)),
)
