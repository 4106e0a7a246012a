"""Time equivalents: the prefix length that matches a target value.

Given outcomes ``x`` strictly better than ``y``, the profile paying ``x`` on
``[0, t)`` and ``y`` afterwards sweeps every value between ``u(y)`` and
``u(x)`` as ``t`` grows.  The closed form inverts the prefix mass; the
bisection variant recovers the same ``t`` from a black-box comparison oracle
without ever seeing its model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .acts import GridAct, Outcome, StepProfile, _switch_act
from .evaluate import DSEUModel
from .measure import CEILING_MASS, ExpMeasure
from .oracles import _FIRST, _INDIFFERENT, _SECOND, Preference, ProtocolError

#: Fallback search ceiling when the oracle's discount rate is unknown.
FALLBACK_HORIZON = 1e12

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class TimeEquivalent:
    """Prefix length ``t``, or the whole horizon when ``t`` is ``None``.

    ``bracket_width`` is 0 for closed-form answers and the final bracket for
    bisected ones.
    """

    t: float | None
    bracket_width: float = 0.0

    def __post_init__(self) -> None:
        if self.t is not None and (self.t < 0 or math.isnan(self.t)):
            raise ValueError(f"equivalent time must be >= 0, got {self.t!r}")

    @property
    def is_whole_horizon(self) -> bool:
        return self.t is None

    def profile(self, x: Outcome, y: Outcome) -> StepProfile:
        """The witness stream: ``x`` before ``t``, ``y`` after."""
        return StepProfile.before_after(x, math.inf if self.t is None else self.t, y)


def time_equivalent_value(
    model: DSEUModel, v: float, x: Outcome, y: Outcome
) -> TimeEquivalent:
    """Closed-form prefix length whose x-then-y stream is worth ``v``."""
    ux, uy = model.utility(x), model.utility(y)
    if ux <= uy:
        raise ValueError(f"need u({x!r}) > u({y!r}), got {ux} <= {uy}")
    if not uy <= v <= ux:
        raise ValueError(f"target value {v!r} outside [{uy}, {ux}]")
    if v == uy:
        return TimeEquivalent(0.0)
    if v == ux:
        return TimeEquivalent(None)
    p = (v - uy) / (ux - uy)
    if p >= 1.0:
        return TimeEquivalent(None)
    return TimeEquivalent(model.discount.quantile(p))


def time_equivalent_act(
    model: DSEUModel, f: GridAct, x: Outcome, y: Outcome
) -> TimeEquivalent:
    """Time equivalent of an act, through its model value."""
    v = model.act_value(f)
    ux, uy = model.utility(x), model.utility(y)
    if ux > uy and not uy <= v <= ux:
        raise ValueError(
            f"act value {v!r} escapes the bracket [u({y!r})={uy}, u({x!r})={ux}]"
        )
    return time_equivalent_value(model, v, x, y)


def _gallop(
    probe: Callable[[float], Preference], hint: float, ceiling: float, tol: float
) -> tuple[float, float]:
    """Times near ``hint`` that bracket the switch, as ``(lo, hi)``.

    ``lo`` is the highest time the probe answered "second" and ``hi`` the
    lowest it answered "first", each NaN if none did (both are, unasked, for
    a hint with no finite cell).  The probes sit on the grid of the search's
    final bracket width.  The first is the grid point nearest the hint, at
    least one step above 0 and capped at the ceiling.  The next ones lie 1
    and then 2 grid steps from it, on the side its answer points to (above
    after "second", capped at the ceiling; below after "first", above 0),
    until the probe gives the opposite answer: at most three probes.  An
    indifferent answer ends the gallop and is dropped.
    """
    lo = hi = math.nan
    grid = 2.0 ** math.floor(math.log2(tol))
    cell = min(max(hint, 0.0), ceiling) / grid
    if not math.isfinite(cell):
        return lo, hi
    start = t = min(max(round(cell), 1) * grid, ceiling)
    answer = probe(t)
    if answer is _SECOND:
        lo = t
        for steps in (1, 2):
            if t >= ceiling:
                break
            t = min(start + steps * grid, ceiling)
            answer = probe(t)
            if answer is _FIRST:
                hi = t
            if answer is not _SECOND:
                break
            lo = t
    elif answer is _FIRST:
        hi = t
        for steps in (1, 2):
            t = start - steps * grid
            if t <= 0.0:
                break
            answer = probe(t)
            if answer is _SECOND:
                lo = t
            if answer is not _FIRST:
                break
            hi = t
    return lo, hi


def bisect_indifference(
    probe: Callable[[float], Preference],
    ceiling: float,
    tol: float,
    hint: float | None = None,
) -> tuple[float, float] | None:
    """Search ``(0, ceiling]`` for the time at which ``probe`` turns indifferent.

    ``probe(t)`` must prefer the second side below the switch and the first
    side above it.  The upper bound starts at ``min(1, ceiling)`` and doubles,
    capped at ``ceiling``, until the probe prefers the first side; the bracket
    is then halved until narrower than ``tol``, or until its midpoint rounds
    onto one of its ends (a ``tol`` below the float spacing at the switch).
    Returns ``(t, 0.0)`` as soon as the probe is indifferent at ``t``, else
    the final midpoint and bracket width, or ``None`` when the probe still
    prefers the second side at ``ceiling``.  Before any probe, a ``tol``
    not finite and above 0 or a ``ceiling`` not above 0 raises ValueError.

    A ``hint``, a predicted switch time, warm-starts the search: at most
    three probes near it (:func:`_gallop`), the first at the grid point
    nearest the hint, bracket the switch.  The result is the cold search's
    with every step at or below that bracket taken as "second" and every
    step at or above it as "first", without asking.  When the probe's
    answers are weakly monotone in ``t`` (second, then indifferent, then
    first), those are the answers it would have given, so the result equals
    the unhinted one bit for bit, with at most three probes more.  A hint
    less than half a grid step from a strict switch (no indifferent band, at
    least two steps above 0, the ceiling at least twice above it and 1)
    leaves two probes in all.

    The search closes at once, asking nothing more, when the gallop's
    bracket is one grid cell (the grid step is the power of two at or below
    ``tol``) starting on a grid point, and the ceiling is at least 1 with
    its largest power of two at or below it (any, for an infinite ceiling)
    not below the cell.  Every doubling bound is then a power of two, and
    every midpoint down to the cell a grid point, outside the cell's open
    interior, so the loops would take every step unasked and end on the
    cell.  The cell's top at most ``2**53`` grid steps keeps every such
    midpoint exact.  Any other bracket replays the loops, asking every step
    the gallop's answers do not cover, also at ``t = inf``.
    """
    _check_tol(tol)
    if not ceiling > 0:
        raise ValueError(f"search ceiling must be > 0, got {ceiling}")
    # A bound no answer gave is NaN, and every comparison with NaN is false.
    second_below = first_above = math.nan
    if hint is not None:
        second_below, first_above = _gallop(probe, hint, ceiling, tol)
        grid = 2.0 ** math.floor(math.log2(tol))
        if (
            first_above - second_below == grid
            and ceiling >= 1.0
            and (second_below / grid).is_integer()
            and first_above <= 2.0**53 * grid
            and (ceiling == math.inf or first_above <= math.ldexp(0.5, math.frexp(ceiling)[1]))
        ):
            return 0.5 * (second_below + first_above), grid

    lo = 0.0
    hi = min(1.0, ceiling)
    while True:
        if not hi <= second_below:
            if hi >= first_above:
                break
            answer = probe(hi)
            if answer is _INDIFFERENT:
                return hi, 0.0
            if answer is _FIRST:
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
            if answer is _INDIFFERENT:
                return mid, 0.0
            if answer is _FIRST:
                hi = mid
            else:
                lo = mid
    return 0.5 * (lo + hi), hi - lo


def _check_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite number above 0."""
    if not tol > 0:
        raise ValueError(f"tolerance must be > 0, got {tol}")
    # The gallop's grid step is the power of two at or below tol.
    if tol == math.inf:
        raise ValueError(f"tolerance must be finite, got {tol}")


def _check_outcomes(x: Outcome, y: Outcome) -> None:
    """Reject equal reference outcomes, whose switch streams are all one act."""
    if x == y:
        raise ValueError(f"the two outcomes must differ, got {x!r} twice")


def _equivalent(
    oracle,
    f: GridAct,
    x: Outcome,
    y: Outcome,
    rate: ExpMeasure | None,
    tol: float,
    hint: float | None,
) -> tuple[float | None, float, int]:
    """The search of :func:`time_equivalent_bisect`, with its query count.

    Returns the fields of the :class:`TimeEquivalent`, ``t`` and
    ``bracket_width``, and the number of queries asked: the probes, then
    the end queries that were asked.  The probe and constant acts list
    ``f``'s states in its order.  The ceiling is ``FALLBACK_HORIZON``
    without a rate, else the rate's ``quantile(CEILING_MASS)``, which each
    :class:`~dseu.measure.ExpMeasure` computes once and keeps.  Its callers
    check that ``x != y``.
    """
    compare, states = oracle.compare, f.profiles
    ceiling = FALLBACK_HORIZON if rate is None else rate._ceiling
    seen: list[Preference] = []

    def probe(t: float) -> Preference:
        answer = compare(_switch_act(states, x, t, y), f)
        seen.append(answer)
        return answer

    found = bisect_indifference(probe, ceiling, tol, hint)
    asked = len(seen)
    top = bottom = _FIRST
    if _FIRST not in seen:
        asked += 1
        top = compare(GridAct.constant(states, x), f)
        if top is _SECOND:
            raise ProtocolError(f"oracle strictly prefers the act to constant {x!r}")
    if _SECOND not in seen:
        asked += 1
        bottom = compare(f, GridAct.constant(states, y))
        if bottom is _SECOND:
            raise ProtocolError(f"oracle strictly prefers constant {y!r} to the act")
    if bottom is _INDIFFERENT:
        return 0.0, 0.0, asked
    if top is _INDIFFERENT or found is None:
        return None, 0.0, asked
    return *found, asked


def time_equivalent_bisect(
    oracle,
    f: GridAct,
    x: Outcome,
    y: Outcome,
    tol: float = DEFAULT_TOL,
    rate: ExpMeasure | None = None,
    hint: float | None = None,
) -> TimeEquivalent:
    """Bisect an oracle for the prefix length indifferent to ``f``.

    Requires the oracle to weakly rank ``x`` above ``f`` above ``y``
    (violations raise :class:`ProtocolError`); equal ``x`` and ``y`` raise
    ValueError before any query.  The search is
    :func:`bisect_indifference` on the x-then-y prefix stream against ``f``;
    past the mass ceiling (computed from ``rate`` when given, a fixed large
    horizon otherwise) the answer is the whole horizon.  A ``hint``, a
    predicted prefix length, is passed on to warm-start the search: for an
    oracle whose answers are weakly monotone in the prefix length, the result
    is the unhinted one bit for bit, at a cost of at most three queries more.

    The end queries, constant ``x`` against ``f`` and ``f`` against constant
    ``y``, are the probes at prefix lengths infinity and 0.  Each is asked
    after the search, only when no probe's answer implies it under weakly
    monotone answers: the top one when none answered "first", the bottom
    one when none answered "second", top first.  A "second" answer raises;
    an indifferent bottom gives 0, else an indifferent top the whole
    horizon.  For weakly monotone answers every result and error is the one
    of asking both before the search: up to two queries fewer, or a whole
    search more for an act worth ``x`` or ``y`` or outside them, which an
    end query settled before any probe.
    """
    _check_outcomes(x, y)
    t, width, _ = _equivalent(oracle, f, x, y, rate, tol, hint)
    return TimeEquivalent(t, width)
