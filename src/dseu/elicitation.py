"""Recovering a discount rate and event probabilities from indifference queries.

The session first finds the half-life: the prefix length at which swapping
"good now, bad later" against "bad now, good later" leaves the oracle
indifferent.  That pins the rate.  Each event's probability is then read off
its time equivalent: the prefix length whose sure stream matches a bet on
the event, mapped through the prefix mass.  An additive decision maker
yields a probability measure; the additivity residuals measure how far any
other oracle deviates.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .acts import GridAct, Outcome, State, StepProfile, _switch_act
from .equivalents import (
    DEFAULT_TOL,
    FALLBACK_HORIZON,
    _check_outcomes,
    _check_tol,
    _equivalent,
    bisect_indifference,
)
from .evaluate import Beliefs, DSEUModel, UtilityModel
from .measure import ExpMeasure, plain_sum
from .oracles import _FIRST, _SECOND, Preference, ProtocolError, subset_indices

#: Residual size above which a recovered set function is flagged non-additive.
DEFAULT_RESIDUAL_TOLERANCE = 1e-3


@dataclass
class ElicitationReport:
    """Everything one session recovers, with its additivity audit."""

    lambda_hat: float
    mu_hat: dict[frozenset[State], float]
    additivity_residuals: dict[tuple[frozenset[State], frozenset[State]], float]
    query_count: int
    residual_tolerance: float = DEFAULT_RESIDUAL_TOLERANCE

    @property
    def max_residual(self) -> float:
        return max(map(abs, self.additivity_residuals.values()), default=0.0)

    @property
    def additive(self) -> bool:
        return self.max_residual <= self.residual_tolerance

    @property
    def verdict(self) -> str:
        return "PASS" if self.additive else "FAIL"


def elicit_lambda(
    oracle, x: Outcome, y: Outcome, tol: float = DEFAULT_TOL
) -> ExpMeasure:
    """Recover the discount rate from the half-life indifference point.

    At the indifference time ``t*`` the two swap streams split the horizon
    into halves of equal mass, so the rate is ``ln 2 / t*`` regardless of
    the utilities involved.

    The ranking query, constant ``x`` against constant ``y``, must answer
    "first".  It is the probe at ``t = inf``, and the probe at ``t = 0`` is
    its mirror, so under answers weakly monotone in ``t`` a "second" at any
    ``t`` implies it.  It is asked after the search, only when no probe
    answered "second" or the search met no switch up to the ceiling, and a
    wrong ranking raises before the ceiling error.  On such oracles every
    result and error is the one of asking it before the search, with one
    query fewer once a probe answered "second".
    """
    return _half_life(oracle, x, y, tol)[0]


def _half_life(oracle, x: Outcome, y: Outcome, tol: float) -> tuple[ExpMeasure, int]:
    """The search of :func:`elicit_lambda`, with its query count.

    The count is the probes, then the ranking query when it was asked.
    Equal outcomes ``x`` and ``y`` raise ValueError before any query.
    """
    _check_outcomes(x, y)
    compare, states = oracle.compare, oracle.states
    seen: list[Preference] = []

    def probe(t: float) -> Preference:
        # x-then-y against y-then-x, both switching at t.
        answer = compare(_switch_act(states, x, t, y), _switch_act(states, y, t, x))
        seen.append(answer)
        return answer

    found = bisect_indifference(probe, FALLBACK_HORIZON, tol)
    asked = len(seen)
    if found is None or _SECOND not in seen:
        asked += 1
        ranked = compare(GridAct.constant(states, x), GridAct.constant(states, y))
        if ranked is not _FIRST:
            raise ProtocolError(
                f"half-life query needs a strict preference for {x!r} over {y!r}, got {ranked.name}"
            )
    if found is None:
        raise ProtocolError(
            f"no half-life indifference up to the search ceiling {FALLBACK_HORIZON:g}"
        )
    return ExpMeasure(math.log(2.0) / found[0]), asked


def elicit_event(
    oracle,
    rate: ExpMeasure,
    event: frozenset[State] | set[State],
    x: Outcome,
    y: Outcome,
    tol: float = DEFAULT_TOL,
    hint: float | None = None,
) -> float:
    """Probability of an event from the time equivalent of a bet on it.

    ``hint``, a predicted time equivalent, warm-starts the search (see
    :func:`~dseu.equivalents.time_equivalent_bisect`).  ``tol``, then
    ``x != y``, is checked first, also for the empty and the sure event (0
    and 1, unasked).
    """
    _check_tol(tol)
    _check_outcomes(x, y)
    states = oracle.states
    event = frozenset(event)
    space = set(states)
    if not event <= space:
        raise ValueError(f"event {sorted(event)} is not a subset of {sorted(states)}")
    if not event:
        return 0.0
    if len(event) == len(space):
        return 1.0
    bet = GridAct.bet(states, event, x, y)
    t, _, _ = _equivalent(oracle, bet, x, y, rate, tol, hint)
    return 1.0 if t is None else -math.expm1(-rate.rate * t)


@functools.lru_cache(maxsize=None)
def _power_set_plan(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """Every subset of ``n`` states and every disjoint pair of nonempty ones, as masks.

    Bit ``i`` stands for the ``i``-th state.  Subsets come in the order of
    :func:`~dseu.oracles.subset_indices` (by size, each size in combination order)
    and pairs in the order of ``itertools.combinations`` over the nonempty
    subsets.
    """
    events = tuple(sum(1 << i for i in c) for c in subset_indices(n))
    pairs = tuple((e, f) for k, e in enumerate(events[1:], 2) for f in events[k:] if not e & f)
    return events, pairs


def _event_plan(n: int) -> tuple[Sequence[int], Sequence[tuple[int, int]]]:
    """State masks to elicit and the disjoint pairs to audit, for ``n`` states.

    Up to 10 states every subset is elicited and every disjoint pair of
    nonempty subsets is audited (a plan built once per state count and
    cached); beyond that only singletons and their pairwise unions are used,
    built on each call.
    """
    if n <= 10:
        return _power_set_plan(n)
    pairs = [(1 << a, 1 << b) for a, b in itertools.combinations(range(n), 2)]
    events = [1 << i for i in range(n)] + [e | f for e, f in pairs]
    return events, pairs


@functools.lru_cache(maxsize=None)
def _session_plan(n: int) -> tuple[
    tuple[int, ...],
    tuple[tuple[tuple[int, int], ...], ...],
    tuple[int, ...],
    tuple[tuple[int, int, int], ...],
]:
    """:func:`_event_plan` for ``n`` states, by position in its events, cached.

    Returns the events' masks; for each event ``E`` of two or more states
    the positions of ``E - {s}`` and ``{s}`` for every state ``s`` of ``E``,
    in state order, the last pair naming the two sets whose union is ``E``
    (none for the empty event and the singletons); the singletons'
    positions, in state order; and each audited pair ``(e, f)`` as the
    positions of ``e``, ``f`` and ``e | f``.
    """
    events, pairs = _event_plan(n)
    at = {e: k for k, e in enumerate(events)}
    parts = tuple(
        tuple((at[e ^ 1 << i], at[1 << i]) for i in range(n) if e >> i & 1) if e & (e - 1) else ()
        for e in events
    )
    singles = tuple(at[1 << i] for i in range(n))
    return tuple(events), parts, singles, tuple((at[e], at[f], at[e | f]) for e, f in pairs)


def elicit_measure(
    oracle,
    rate: ExpMeasure,
    x: Outcome,
    y: Outcome,
    tol: float = DEFAULT_TOL,
) -> ElicitationReport:
    """Elicit a whole set function and audit its additivity.

    The events and the audited pairs come from a plan of state masks that
    depends only on the state count (see :func:`_event_plan`), read by
    position (:func:`_session_plan`, built once per state count and
    cached).  Events are elicited by size, so each event ``E`` of two or
    more states comes after every ``E - {s}`` and ``{s}`` with ``s`` in
    ``E``.  Its search starts from the additive prediction, the time
    equivalent of the mean of ``mu(E - {s}) + mu({s})`` over every ``s``
    in ``E``, summed in ``states`` order (no hint when that mean is at
    least 1).  The last
    state's singleton, elicited after the others, starts from the time
    equivalent of one minus their sum, when that lies strictly between 0
    and 1.  For an oracle whose answers are weakly monotone in the prefix
    length every estimate equals the cold search's bit for bit, each event
    costing at most three queries more; near-additive oracles cost far
    fewer.  The empty event gets 0 and the sure event 1, without a query.

    ``tol``, then ``x != y``, is checked first, also for a one-state
    session, and the two constant rows of the bets are built once per
    session.  Each other event is the search of
    :func:`~dseu.equivalents.time_equivalent_bisect` on the bet that
    :meth:`~dseu.acts.GridAct.bet` would build ("x" on the event, "y" off
    it, in ``states`` order), so every estimate, query and error is that of
    :func:`elicit_event` with the same hint.  The report's ``query_count``
    adds up what each search asked, probes and end queries; the oracle is
    not wrapped.  Estimates are kept in a list by plan position, and every
    hint reads its parts by position, adding in the order above.  The
    report's set-keyed ``mu_hat`` and residuals are built once, at the end:
    each event's set is the union of the two sets of its last part (``E``
    less its last state, and that state), and the residuals come in one
    pass over the plan's pairs, each
    ``est[e | f] - est[e] - est[f]``, keyed by the pair's two sets in plan
    order.
    """
    _check_tol(tol)
    _check_outcomes(x, y)
    states = oracle.states
    won, lost = StepProfile.constant(x), StepProfile.constant(y)
    bits = [(s, 1 << i) for i, s in enumerate(states)]
    events, parts, singles, pairs = _session_plan(len(states))
    # The last state's singleton, hinted from the others; -1 without states.
    top = singles[-1] if singles else -1
    est: list[float] = []
    full = (1 << len(states)) - 1
    queries = 0
    for k, e in enumerate(events):
        if not e or e == full:
            est.append(1.0 if e else 0.0)
            continue
        hint = None
        if parts[k]:
            total = 0.0
            for rest, single in parts[k]:
                total += est[rest] + est[single]
            p = total / len(parts[k])
            if p < 1.0:
                hint = rate.quantile(p)
        elif k == top:
            p = 1.0 - plain_sum(map(est.__getitem__, singles[:-1]))
            if 0.0 < p < 1.0:
                hint = rate.quantile(p)
        bet = GridAct({s: won if e & b else lost for s, b in bits})
        t, _, asked = _equivalent(oracle, bet, x, y, rate, tol, hint)
        queries += asked
        est.append(1.0 if t is None else -math.expm1(-rate.rate * t))
    named = [frozenset()] * len(events)
    for k, s in zip(singles, states):
        named[k] = frozenset((s,))
    for k, part in enumerate(parts):
        if part:
            named[k] = named[part[-1][0]] | named[part[-1][1]]
    return ElicitationReport(
        lambda_hat=rate.rate,
        mu_hat=dict(zip(named, est)),
        additivity_residuals={
            (named[e], named[f]): est[ef] - est[e] - est[f] for e, f, ef in pairs
        },
        query_count=queries,
    )


def run_session(
    oracle, x: Outcome, y: Outcome, tol: float = DEFAULT_TOL
) -> ElicitationReport:
    """Full session: half-life first, then the event family, one query count.

    Neither phase wraps the oracle: each counts the queries it asks.
    """
    rate, asked = _half_life(oracle, x, y, tol)
    report = elicit_measure(oracle, rate, x, y, tol)
    report.query_count += asked
    return report


# ---------------------------------------------------------------------------
# The worked three-state chain: betting on a union versus its parts.
# ---------------------------------------------------------------------------

GOOD = "10"
BAD = "0"

_CHAIN = (
    ("bet_union", "bet_union_delayed"),
    ("bet_union_delayed", "sure_union_window"),
    ("bet_union", "bet_e_then_f"),
    ("bet_e_then_f", "bet_e_sure_f"),
    ("bet_e_sure_f", "sure_fprime_bet_e"),
    ("sure_fprime_bet_e", "sure_two_windows"),
    ("sure_union_window", "sure_two_windows"),
)


@dataclass
class Section2Trace:
    """All intermediate quantities of the union-additivity chain."""

    rate: float
    mu_e: float
    mu_f: float
    t_half: float
    t_e: float
    t_f: float
    t_union: float
    t_f_prime: float
    acts: dict[str, GridAct] = field(default_factory=dict)
    values: dict[str, float] = field(default_factory=dict)
    indifference_gaps: dict[tuple[str, str], float] = field(default_factory=dict)
    identity_residual: float = 0.0
    mu_hat: dict[str, float] = field(default_factory=dict)
    additivity_residual: float = 0.0

    @property
    def max_gap(self) -> float:
        """Largest absolute indifference gap of the chain; public API."""
        return max(abs(g) for g in self.indifference_gaps.values())

    @property
    def chain(self) -> tuple[tuple[str, str], ...]:
        return _CHAIN


def section2_demo(rate: ExpMeasure, mu_e: float, mu_f: float) -> Section2Trace:
    """Run the seven-matrix indifference chain for two disjoint events.

    States are the three classes "e", "f", "r" (inside the first event,
    inside the second, outside both) with the given probabilities.  Each
    claimed indifference is verified by evaluating both acts; the final
    comparison of the two deterministic acts is the additivity identity.
    Probabilities are recovered through log-survival products kept separate
    from the rate, so exact inputs round-trip exactly.
    """
    for name, p in (("mu_e", mu_e), ("mu_f", mu_f)):
        if not 0.0 <= p <= 1.0 or math.isnan(p):
            raise ValueError(f"{name} must lie in [0, 1], got {p!r}")
    if mu_e + mu_f > 1.0:
        raise ValueError(f"event masses overlap: {mu_e} + {mu_f} > 1")

    lam = rate.rate
    q_e = -math.log1p(-mu_e) if mu_e < 1.0 else math.inf
    q_f = -math.log1p(-mu_f) if mu_f < 1.0 else math.inf
    mu_union = mu_e + mu_f
    q_union = -math.log1p(-mu_union) if mu_union < 1.0 else math.inf
    q_f_prime = -math.log1p(-0.5 * mu_f)

    t = rate.half_life
    t_e, t_f, t_union, t_f_prime = (q / lam for q in (q_e, q_f, q_union, q_f_prime))

    model = DSEUModel(
        rate,
        UtilityModel({GOOD: 1.0, BAD: 0.0}),
        Beliefs({"e": mu_e, "f": mu_f, "r": 1.0 - mu_e - mu_f}),
    )

    bet_row = StepProfile.from_breakpoints([t], [GOOD, BAD])
    zero = StepProfile.constant(BAD)
    delayed_row = StepProfile.from_breakpoints([t], [BAD, GOOD])
    window_union = StepProfile.from_breakpoints([t, t + t_union], [BAD, GOOD, BAD])
    window_f = StepProfile.from_breakpoints([t, t + t_f], [BAD, GOOD, BAD])
    e_long = StepProfile.from_breakpoints([t + t_f], [GOOD, BAD])
    fprime_head = [t_f_prime, t]
    acts = {
        "bet_union": GridAct({"e": bet_row, "f": bet_row, "r": zero}),
        "bet_union_delayed": GridAct({"e": delayed_row, "f": delayed_row, "r": zero}),
        "sure_union_window": GridAct.deterministic(("e", "f", "r"), window_union),
        "bet_e_then_f": GridAct({"e": bet_row, "f": delayed_row, "r": zero}),
        "bet_e_sure_f": GridAct({"e": e_long, "f": window_f, "r": window_f}),
        "sure_fprime_bet_e": GridAct(
            {
                "e": StepProfile.from_breakpoints(fprime_head, [GOOD, BAD, GOOD]),
                "f": StepProfile.from_breakpoints(fprime_head, [GOOD, BAD, BAD]),
                "r": StepProfile.from_breakpoints(fprime_head, [GOOD, BAD, BAD]),
            }
        ),
        "sure_two_windows": GridAct.deterministic(
            ("e", "f", "r"),
            StepProfile.from_breakpoints([*fprime_head, t + t_e], [GOOD, BAD, GOOD, BAD]),
        ),
    }

    values = {name: model.act_value(act) for name, act in acts.items()}
    gaps = {(a, b): values[a] - values[b] for a, b in _CHAIN}

    mu_hat = {
        "e": -math.expm1(-q_e),
        "f": -math.expm1(-q_f),
        "union": -math.expm1(-q_union),
    }
    return Section2Trace(
        rate=lam,
        mu_e=mu_e,
        mu_f=mu_f,
        t_half=t,
        t_e=t_e,
        t_f=t_f,
        t_union=t_union,
        t_f_prime=t_f_prime,
        acts=acts,
        values=values,
        indifference_gaps=gaps,
        identity_residual=values["sure_union_window"] - values["sure_two_windows"],
        mu_hat=mu_hat,
        additivity_residual=mu_hat["union"] - mu_hat["e"] - mu_hat["f"],
    )
