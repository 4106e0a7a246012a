"""Reduction of acts to state-indexed lotteries, and its mixture geometry.

Pushing the time axis through the discount measure turns every step profile
into a finitely supported lottery over outcomes, and every grid act into a
map from states to lotteries.  Splicing a specially built head act before
time ``t`` then realizes the convex mixture with weight ``exp(-rate*t)`` on
the tail reduction, which is the mixture-space structure the representation
rests on; the functions here construct both sides of that identity so it
can be checked numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .acts import GridAct, Outcome, State, StepProfile, splice_time
from .equivalents import TimeEquivalent
from .evaluate import DSEUModel, check_states
from .measure import INF, ExpMeasure, TimeInterval, plain_sum

@dataclass(frozen=True)
class Lottery:
    """Finitely supported probability over outcomes; zero entries are dropped."""

    probs: Mapping[Outcome, float]

    def __post_init__(self) -> None:
        cleaned = {}
        for out, p in self.probs.items():
            if not math.isfinite(p) or p < 0:
                raise ValueError(f"probability of {out!r} must be >= 0, got {p!r}")
            if p > 0:
                cleaned[out] = p
        total = plain_sum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"lottery probabilities must sum to 1 within 1e-12, got {total!r}")
        object.__setattr__(self, "probs", cleaned)

    @classmethod
    def degenerate(cls, outcome: Outcome) -> Lottery:
        return cls({outcome: 1.0})

    @property
    def support(self) -> tuple[Outcome, ...]:
        return tuple(sorted(self.probs))

    def prob(self, outcome: Outcome) -> float:
        return self.probs.get(outcome, 0.0)

    def mix_with(self, other: Lottery, w: float) -> Lottery:
        outs = set(self.probs) | set(other.probs)
        return Lottery(
            {o: w * self.prob(o) + (1.0 - w) * other.prob(o) for o in outs}
        )

    def distance(self, other: Lottery) -> float:
        outs = set(self.probs) | set(other.probs)
        return max(abs(self.prob(o) - other.prob(o)) for o in outs)


@dataclass(frozen=True)
class LotteryAct:
    """One lottery per state."""

    lotteries: Mapping[State, Lottery]

    def __post_init__(self) -> None:
        if not self.lotteries:
            raise ValueError("a lottery act needs at least one state")

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self.lotteries)

    def at(self, state: State) -> Lottery:
        return self.lotteries[state]

    def distance(self, other: LotteryAct) -> float:
        if set(self.states) != set(other.states):
            raise ValueError("lottery acts live on different state spaces")
        return max(self.at(s).distance(other.at(s)) for s in self.states)


def reduce_profile(rate: ExpMeasure, profile: StepProfile) -> Lottery:
    """Lottery giving each outcome the measure of the times it is paid."""
    probs: dict[Outcome, float] = {}
    exp, neg = math.exp, -rate.rate
    # The floats of ``rate.sf``: sf(0) is 1 and sf(inf) is 0.
    sf = [1.0, *[exp(neg * t) for t in profile.cuts], 0.0]
    for a, b, out in zip(sf, sf[1:], profile.outs):
        probs[out] = probs.get(out, 0.0) + (a - b)
    return Lottery(probs)


def reduce_profile_on(
    rate: ExpMeasure, profile: StepProfile, window: TimeInterval
) -> Lottery:
    """Conditional reduction: outcome masses within ``window``, renormalized."""
    total = rate.interval_mass(window)
    if total <= 0.0:
        raise ValueError(f"window [{window.lo}, {window.hi}) carries no mass")
    probs: dict[Outcome, float] = {}
    for lo, hi, out in profile.segments():
        lo, hi = max(lo, window.lo), min(hi, window.hi)
        if lo < hi:
            probs[out] = probs.get(out, 0.0) + (rate.sf(lo) - rate.sf(hi)) / total
    return Lottery(probs)


def reduce_act(rate: ExpMeasure, act: GridAct) -> LotteryAct:
    return LotteryAct({s: reduce_profile(rate, act.row(s)) for s in act.states})


def mix(a: LotteryAct, b: LotteryAct, w: float) -> LotteryAct:
    """Statewise convex combination with weight ``w`` on ``a``."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"mixture weight must lie in [0, 1], got {w}")
    if set(a.states) != set(b.states):
        raise ValueError("cannot mix lottery acts on different state spaces")
    return LotteryAct({s: a.at(s).mix_with(b.at(s), w) for s in a.states})


def realize_lottery(
    rate: ExpMeasure, window: TimeInterval, lottery: Lottery
) -> tuple[tuple[TimeInterval, Outcome], ...]:
    """Pieces tiling ``window`` so each outcome holds its lottery share of mass.

    Outcomes are laid out in label order, split at the quantiles of the
    cumulative shares.
    """
    support = lottery.support
    intervals = rate.split(window, [lottery.prob(o) for o in support])
    return tuple(zip(intervals, support))


def realize_lottery_act(rate: ExpMeasure, t: float, g: LotteryAct) -> GridAct:
    """Grid act whose conditional distribution on ``[0, t)`` is ``g`` statewise.

    After ``t`` every row pays the label-first outcome of the act's combined
    support; the tail never matters to the identities built on this head.
    """
    if not 0.0 < t < INF:
        raise ValueError(f"realization window end must be positive and finite, got {t}")
    filler = min(o for s in g.states for o in g.at(s).support)
    window = TimeInterval(0.0, t)
    rows = {}
    for s in g.states:
        head = realize_lottery(rate, window, g.at(s))
        rows[s] = StepProfile(
            tuple([iv.hi for iv, _ in head]), (*[x for _, x in head], filler)
        ).normalized()
    return GridAct(rows)


def independence_witness(
    rate: ExpMeasure, t: float, g: LotteryAct, f: GridAct
) -> tuple[LotteryAct, LotteryAct]:
    """Both sides of the mixture identity behind independence.

    Left: reduction of the act that realizes ``g`` before ``t`` and plays
    ``f`` afterwards.  Right: the mixture of ``g`` and the reduction of
    ``f`` with weight ``exp(-rate*t)`` on the latter.  The two agree
    entrywise in closed form.
    """
    head = realize_lottery_act(rate, t, g)
    lhs = reduce_act(rate, splice_time(head, t, f))
    w = rate.sf(t)
    rhs = mix(reduce_act(rate, f), g, w)
    return lhs, rhs


def aa_value(model: DSEUModel, f: GridAct) -> float:
    """Expected utility of the reduced act: mean over states, then over lotteries.

    Must coincide with the direct act value; that equality is the reduction
    step of the representation.
    """
    check_states(model.states, f)
    total = 0.0
    for s in f.states:
        lot = reduce_profile(model.discount, f.row(s))
        total += model.beliefs(s) * plain_sum(
            p * model.utility(o) for o, p in lot.probs.items()
        )
    return total


def continuity_witness(
    model: DSEUModel, f: GridAct, x: Outcome, y: Outcome, te: TimeEquivalent
) -> tuple[Lottery, Lottery]:
    """Reduction of the time-equivalent stream against the two-point mixture.

    The stream paying ``x`` before the equivalent time and ``y`` afterwards
    reduces to the lottery putting the prefix mass on ``x``; this returns
    that reduction and the explicitly mixed two-point lottery.
    """
    reduced = reduce_profile(model.discount, te.profile(x, y))
    alpha = 1.0 if te.is_whole_horizon else model.discount.cdf(te.t)
    mixed = Lottery.degenerate(x).mix_with(Lottery.degenerate(y), alpha)
    return reduced, mixed
