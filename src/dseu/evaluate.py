"""Discounted subjective expected utility of grid acts, in both integration orders.

A model is a triple (discount rate, utility on the outcome alphabet, beliefs
on the states).  The value of an act is the expectation of utility under the
product of beliefs and the exponential time measure; for step acts this is a
finite sum, evaluated either state-first or time-first.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping

from .acts import GridAct, Outcome, State, StepProfile, splice_time
from .measure import ExpMeasure, plain_sum


@dataclass(frozen=True)
class UtilityModel:
    """Bounded utility on a finite outcome alphabet; must be nonconstant."""

    values: Mapping[Outcome, float]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("utility needs at least one outcome")
        for out, u in self.values.items():
            if not math.isfinite(u):
                raise ValueError(f"utility of {out!r} must be finite, got {u!r}")
        if len(set(self.values.values())) < 2:
            raise ValueError("utility must be nonconstant (two distinct values)")

    def __call__(self, outcome: Outcome) -> float:
        try:
            return self.values[outcome]
        except KeyError:
            raise KeyError(
                f"no utility for outcome {outcome!r}; alphabet is {sorted(self.values)}"
            ) from None

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return tuple(self.values)

    def anchors(self) -> tuple[Outcome, Outcome]:
        """A (worst, best) outcome pair, ties broken by label."""
        worst = min(self.values, key=lambda o: (self.values[o], o))
        best = max(self.values, key=lambda o: (self.values[o], o))
        return worst, best

    @property
    def span(self) -> float:
        return max(self.values.values()) - min(self.values.values())


@dataclass(frozen=True)
class Beliefs:
    """Probability vector over states."""

    probs: Mapping[State, float]

    def __post_init__(self) -> None:
        if not self.probs:
            raise ValueError("beliefs need at least one state")
        for s, p in self.probs.items():
            if not math.isfinite(p) or p < 0:
                raise ValueError(f"probability of state {s!r} must be >= 0, got {p!r}")
        total = plain_sum(self.probs.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"state probabilities must sum to 1 within 1e-12, got {total!r}")

    def __call__(self, state: State) -> float:
        try:
            return self.probs[state]
        except KeyError:
            raise KeyError(
                f"no probability for state {state!r}; states are {sorted(self.probs)}"
            ) from None

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self.probs)

    @classmethod
    def uniform(cls, states: tuple[State, ...] | list[State]) -> Beliefs:
        n = len(states)
        return cls({s: 1.0 / n for s in states})


@dataclass(frozen=True)
class DSEUModel:
    """Representing triple: discount measure, utility, beliefs."""

    discount: ExpMeasure
    utility: UtilityModel
    beliefs: Beliefs

    @property
    def states(self) -> tuple[State, ...]:
        return self.beliefs.states

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return self.utility.outcomes

    def profile_value(self, profile: StepProfile) -> float:
        """Discounted utility of a deterministic stream."""
        return profile_value(self.discount, self.utility, profile)

    def act_value(self, act: GridAct) -> float:
        """State-first order: expectation over states of row values.

        Each distinct row object is valued once, by the module-level
        :func:`profile_value`; the products ``belief * row value`` are added
        left to right in the act's state order.  The recorded row
        of a deterministic act (``act.common_row``) is valued without
        walking the rows; an act built from a mapping is walked by row
        ``id``, which gives the same floats.
        """
        probs = self.beliefs.probs
        if act.profiles.keys() != probs.keys():
            check_states(probs, act)
        discount, utility = self.discount, self.utility
        row = act.common_row
        if row is not None:
            v = profile_value(discount, utility, row)
            total = 0.0
            for s in act.profiles:
                total += probs[s] * v
            return total
        # Keyed by id(): the act keeps every row alive for the whole call.
        done: dict[int, float] = {}
        total = 0.0
        for s, p in act.profiles.items():
            v = done.get(id(p))
            if v is None:
                v = done[id(p)] = profile_value(discount, utility, p)
            total += probs[s] * v
        return total

    def act_value_dual(self, act: GridAct) -> float:
        """Time-first order: expectation over a common time refinement.

        Sums cell mass times the believed mean utility over each cell of the
        rows' common refinement (between consecutive cuts of any row).
        One pass over the positions of every row's cuts, stably sorted by
        cut (ties in state order), keeps the terms ``belief * utility`` of
        the current cell, one per row in state order, and replaces one term
        per cut; each cell adds ``sf(lo) - sf(hi)`` times the terms added
        left to right.  Outcomes are looked up in ``utility.values``, first
        pieces first, then row by row; an unknown one raises the
        ``KeyError`` of ``utility(outcome)``.  Agrees with :meth:`act_value`
        up to float roundoff.
        """
        probs = self.beliefs.probs
        if act.profiles.keys() != probs.keys():
            check_states(probs, act)
        values = self.utility.values
        cuts: list[float] = []
        row_of: list[int] = []
        term_of: list[float] = []
        try:
            terms = [probs[s] * values[p.outs[0]] for s, p in act.profiles.items()]
            for i, (s, p) in enumerate(act.profiles.items()):
                w = probs[s]
                cuts += p.cuts
                row_of += [i] * len(p.cuts)
                term_of += [w * u for u in map(values.__getitem__, p.outs[1:])]
        except KeyError as missing:
            self.utility(missing.args[0])
            raise
        exp, neg = math.exp, -self.discount.rate
        total = 0.0
        lo, sf_lo = 0.0, 1.0
        for k in sorted(range(len(cuts)), key=cuts.__getitem__):
            t = cuts[k]
            if t > lo:
                sf_hi = exp(neg * t)
                # plain_sum's additions, inline in this hot loop (from 0.0,
                # which gives the same result on float terms).
                cell = 0.0
                for x in terms:
                    cell += x
                total += (sf_lo - sf_hi) * cell
                lo, sf_lo = t, sf_hi
            terms[row_of[k]] = term_of[k]
        return total + sf_lo * plain_sum(terms)

    def prefix_value(self, act: GridAct, t: float) -> float:
        """Expected discounted utility of ``act`` restricted to times before ``t``.

        Each row sums ``(sf(lo) - sf(hi)) * u(outcome)`` over the pieces that
        start before ``t``, the last of them cut at ``t``, with one ``exp``
        per cut and one lookup in ``utility.values`` per piece, as
        :func:`profile_value` does.
        """
        if t < 0 or math.isnan(t):
            raise ValueError(f"prefix end must be >= 0, got {t!r}")
        check_states(self.states, act)
        if t == 0.0:
            return 0.0
        exp, neg = math.exp, -self.discount.rate
        values = self.utility.values
        probs = self.beliefs.probs
        sf_t = exp(neg * t)
        total = 0.0
        try:
            for s, p in act.profiles.items():
                k = bisect_left(p.cuts, t)
                row = 0.0
                sf_lo = 1.0
                for c, out in zip(p.cuts[:k], p.outs):
                    sf_hi = exp(neg * c)
                    row += (sf_lo - sf_hi) * values[out]
                    sf_lo = sf_hi
                total += probs[s] * (row + (sf_lo - sf_t) * values[p.outs[k]])
            return total
        except KeyError as missing:
            self.utility(missing.args[0])
            raise


def check_states(states: Iterable[State], act: GridAct) -> None:
    """Raise ``KeyError`` unless ``act`` lives on exactly the given states."""
    expected = set(states)
    if act.profiles.keys() != expected:
        missing = sorted(expected - act.profiles.keys())
        extra = sorted(act.profiles.keys() - expected)
        raise KeyError(
            f"act states differ from {sorted(expected)}: missing {missing}, extra {extra}"
        )


def profile_value(
    discount: ExpMeasure, utility: UtilityModel, profile: StepProfile
) -> float:
    """Discounted utility of a stream; beliefs play no role for deterministic acts.

    Sums ``(sf(lo) - sf(hi)) * u(outcome)`` over the pieces in time order,
    with one ``exp(-rate * t)`` per cut (the floats of ``discount.sf``) and
    one lookup in ``utility.values`` per piece; ``sf(0)`` is 1 and
    ``sf(inf)`` is 0.  An outcome outside the utility's alphabet raises the
    ``KeyError`` of ``utility(outcome)``.
    """
    exp, neg = math.exp, -discount.rate
    values = utility.values
    total = 0.0
    sf_lo = 1.0
    try:
        for t, out in zip(profile.cuts, profile.outs):
            sf_hi = exp(neg * t)
            total += (sf_lo - sf_hi) * values[out]
            sf_lo = sf_hi
        return total + sf_lo * values[profile.outs[-1]]
    except KeyError as missing:
        utility(missing.args[0])
        raise


def decomposition_check(
    model: DSEUModel, h: GridAct, t: float, f: GridAct
) -> tuple[float, float]:
    """Both sides of the splice decomposition identity.

    Left: value of ``h`` spliced before ``f`` at time ``t``.  Right: the
    prefix value of ``h`` on ``[0, t)`` plus the tail factor ``exp(-rate*t)``
    times the value of ``f``.  The two agree in closed form.
    """
    lhs = model.act_value(splice_time(h, t, f))
    rhs = model.prefix_value(h, t) + model.discount.sf(t) * model.act_value(f)
    return lhs, rhs
