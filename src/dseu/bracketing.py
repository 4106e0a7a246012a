"""Two-outcome sandwich brackets with a 1/N value gap.

A target stream is squeezed between two indicator-style streams built from
just the worst and best outcomes of the alphabet.  Utilities are rescaled to
[0, 1] internally; time is cut into utility bins, and inside every bin a
left-portion set is carved whose conditional mass equals the bin's quota, so
the carved set is independent of every bin in the product sense.  The same
construction applied to the per-state conditional values sandwiches a whole
grid act.  Gaps are reported on the rescaled utility scale, where the bound
``gap <= 1/N`` is scale-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .acts import GridAct, Outcome, State, StepProfile
from .evaluate import DSEUModel, UtilityModel
from .measure import ExpMeasure, TimeInterval, TimeSet


@dataclass(frozen=True)
class BracketResult:
    """Sandwich around a target: lower and upper act plus the value gap.

    ``gap`` is measured on the [0, 1]-rescaled utility scale; the raw-scale
    gap is ``gap`` times the utility span.  ``bins`` are the level bins the
    construction used: time sets for a stream target, state subsets for a
    grid-act target.
    """

    lower: StepProfile | GridAct
    upper: StepProfile | GridAct
    gap: float
    bins: tuple[TimeSet, ...] | tuple[frozenset[State], ...]


def _normalizer(model: DSEUModel) -> tuple[Outcome, Outcome, float, float]:
    worst, best = model.utility.anchors()
    lo = model.utility(worst)
    return worst, best, lo, model.utility(best) - lo


def _bin_index(value: float, n_bins: int) -> int:
    """Bin of a [0, 1] value: bin ``n`` covers [(n-1)/N, n/N), top closed."""
    return min(n_bins, int(value * n_bins) + 1)


def utility_bins(model: DSEUModel, profile: StepProfile, n_bins: int) -> list[TimeSet]:
    """Partition the horizon into utility level bins of width 1/N.

    Utilities are rescaled to [0, 1] first.  Bin ``n`` (1-based) collects
    the times whose rescaled utility lies in [(n-1)/N, n/N), with the top
    bin closed at 1.  Empty bins are kept, so the list always has ``n_bins``
    entries tiling the horizon.
    """
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    _, _, u_lo, span = _normalizer(model)
    members: list[list[tuple[float, float]]] = [[] for _ in range(n_bins)]
    for lo, hi, out in profile.segments():
        scaled = (model.utility(out) - u_lo) / span
        members[_bin_index(scaled, n_bins) - 1].append((lo, hi))
    return [TimeSet.from_pairs(pairs) for pairs in members]


def _selection(rate: ExpMeasure, bins: list[TimeSet], fracs: list[float]) -> TimeSet:
    """Left portions of each bin's intervals at that bin's fraction (1 keeps all)."""
    picked: list[TimeInterval] = []
    for bin_set, frac in zip(bins, fracs):
        for iv in bin_set:
            part = rate.prefix_fraction(iv, frac)
            if part is not None:
                picked.append(part)
    return TimeSet.of(picked)


def independent_selection(
    rate: ExpMeasure, bins: list[TimeSet], p_target: float
) -> TimeSet:
    """A set holding fraction ``p_target`` of every bin's mass.

    Built interval by interval as leading sub-intervals, so the result ``B``
    satisfies ``mass(B & A) = p_target * mass(A)`` for every bin ``A`` and is
    therefore independent of each bin in the product sense.
    """
    if math.isnan(p_target) or p_target < 0:
        raise ValueError(f"target fraction must be >= 0, got {p_target!r}")
    if p_target >= 1.0:
        raise ValueError(f"target fraction must stay below 1, got {p_target}")
    return _selection(rate, bins, [p_target] * len(bins))


def _two_level_profile(
    inside: TimeSet, best: Outcome, worst: Outcome
) -> StepProfile:
    """Stream paying ``best`` on the set and ``worst`` elsewhere."""
    bounds = [x for iv in inside for x in (iv.lo, iv.hi)]
    outs = [worst, best] * len(inside.intervals) + [worst]
    return StepProfile.from_breakpoints(bounds, outs).normalized()


def bracket_profile(
    model: DSEUModel, profile: StepProfile, n_bins: int
) -> BracketResult:
    """Sandwich a stream between two-outcome streams with gap at most 1/N.

    Bin ``n`` of the target is overwritten by the indicator stream of the
    left portion at fraction ``(n-1)/N`` (lower) or ``n/N`` (upper); the
    portions are carved per bin, so each indicator keeps its quota
    conditionally on every bin.
    """
    worst, best, _, _ = _normalizer(model)
    bins = utility_bins(model, profile, n_bins)
    rate = model.discount
    lower_frac = [(n - 1) / n_bins for n in range(1, n_bins + 1)]
    upper_frac = [n / n_bins for n in range(1, n_bins + 1)]
    lower = _two_level_profile(_selection(rate, bins, lower_frac), best, worst)
    upper = _two_level_profile(_selection(rate, bins, upper_frac), best, worst)
    gap = rate.mass(upper.level_set(best)) - rate.mass(lower.level_set(best))
    return BracketResult(lower=lower, upper=upper, gap=gap, bins=tuple(bins))


def bracket_act(model: DSEUModel, act: GridAct, n_bins: int) -> BracketResult:
    """Sandwich a grid act by binning states on their conditional values.

    States whose rescaled row value falls in bin ``n`` all receive the
    prefix indicator stream of mass ``(n-1)/N`` (lower) or ``n/N`` (upper);
    the value gap telescopes to exactly 1/N of the believed mass.
    """
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    worst, best, u_lo, span = _normalizer(model)
    rate = model.discount
    state_bins: list[set[State]] = [set() for _ in range(n_bins)]
    for s in act.states:
        scaled = (model.profile_value(act.row(s)) - u_lo) / span
        state_bins[_bin_index(scaled, n_bins) - 1].add(s)

    def indicator(fraction: float) -> StepProfile:
        if fraction <= 0.0:
            return StepProfile.constant(worst)
        if fraction >= 1.0:
            return StepProfile.constant(best)
        return StepProfile.before_after(best, rate.quantile(fraction), worst)

    lower_rows: dict[State, StepProfile] = {}
    upper_rows: dict[State, StepProfile] = {}
    for n, members in enumerate(state_bins, start=1):
        low_row = indicator((n - 1) / n_bins)
        high_row = indicator(n / n_bins)
        for s in members:
            lower_rows[s] = low_row
            upper_rows[s] = high_row
    lower_act = GridAct({s: lower_rows[s] for s in act.states})
    upper_act = GridAct({s: upper_rows[s] for s in act.states})
    scale = DSEUModel(rate, UtilityModel({worst: 0.0, best: 1.0}), model.beliefs)
    gap = scale.act_value(upper_act) - scale.act_value(lower_act)
    return BracketResult(
        lower=lower_act,
        upper=upper_act,
        gap=gap,
        bins=tuple(frozenset(m) for m in state_bins),
    )
