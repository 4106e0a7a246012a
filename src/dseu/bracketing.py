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
from .measure import INF, ExpMeasure, TimeInterval, TimeSet, plain_sum


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


def _runs(
    model: DSEUModel, profile: StepProfile, n_bins: int
) -> list[tuple[float, float, int]]:
    """Maximal runs of consecutive pieces in one utility bin, as ``(lo, hi, bin)``.

    Bins are 0-based here.  Two runs of one bin are apart by at least one
    piece of another bin, so each bin's runs are already its canonical
    intervals.
    """
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    _, _, u_lo, span = _normalizer(model)
    bin_of = {x: _bin_index((model.utility(x) - u_lo) / span, n_bins) - 1 for x in set(profile.outs)}
    bins = [bin_of[x] for x in profile.outs]
    starts = [0, *[k for k in range(1, len(bins)) if bins[k] != bins[k - 1]]]
    bounds = (0.0, *profile.cuts, INF)
    return [(bounds[k], bounds[j], bins[k]) for k, j in zip(starts, [*starts[1:], len(bins)])]


def _bin_sets(runs: list[tuple[float, float, int]], n_bins: int) -> list[TimeSet]:
    """One time set per bin, its bounds those of the bin's runs."""
    members: list[list[float]] = [[] for _ in range(n_bins)]
    for lo, hi, b in runs:
        members[b] += (lo, hi)
    return [TimeSet(tuple(bounds)) for bounds in members]


def utility_bins(model: DSEUModel, profile: StepProfile, n_bins: int) -> list[TimeSet]:
    """Partition the horizon into utility level bins of width 1/N.

    Utilities are rescaled to [0, 1] first.  Bin ``n`` (1-based) collects
    the times whose rescaled utility lies in [(n-1)/N, n/N), with the top
    bin closed at 1.  Empty bins are kept, so the list always has ``n_bins``
    entries tiling the horizon.  Each interval of a bin is one run of
    consecutive pieces of the profile in that bin.
    """
    return _bin_sets(_runs(model, profile, n_bins), n_bins)


def independent_selection(
    rate: ExpMeasure, bins: list[TimeSet], p_target: float
) -> TimeSet:
    """A set holding fraction ``p_target`` of every bin's mass.

    Built interval by interval as leading sub-intervals, so the result ``B``
    satisfies ``mass(B & A) = p_target * mass(A)`` for every bin ``A`` and is
    therefore independent of each bin in the product sense.  Each portion is
    ``rate.prefix_fraction`` of its interval.
    """
    if math.isnan(p_target) or p_target < 0:
        raise ValueError(f"target fraction must be >= 0, got {p_target!r}")
    if p_target >= 1.0:
        raise ValueError(f"target fraction must stay below 1, got {p_target}")
    if p_target == 0.0:
        return TimeSet.empty()
    return TimeSet.from_pairs(
        [(lo, rate.prefix_fraction(TimeInterval(lo, hi), p_target).hi) for ts in bins for lo, hi in ts]
    )


def _prefix_end(
    rate: ExpMeasure, lo: float, hi: float, s_lo: float, s_hi: float, frac: float
) -> float:
    """``rate.split(TimeInterval(lo, hi), (frac, 1 - frac))[0].hi`` for ``0 < frac < 1``.

    ``s_lo`` and ``s_hi`` are ``rate.sf(lo)`` and ``rate.sf(hi)``.  Takes the
    same steps as ``split`` on the same floats, without building intervals;
    a mass-zero interval, and a cut that would land on ``lo`` or ``hi``
    (where ``split`` raises), go to ``split`` itself.
    """
    mass = s_lo - s_hi
    survival = s_lo - frac * mass
    if mass > 0.0 and survival > 0.0:
        end = min(-math.log(survival) / rate.rate, hi)
        if lo < end < hi:
            return end
    return rate.split(TimeInterval(lo, hi), (frac, 1.0 - frac))[0].hi


def _indicator(
    rate: ExpMeasure,
    runs: list[tuple[float, float, int]],
    sf: list[float],
    fracs: list[float],
    best: Outcome,
    worst: Outcome,
) -> tuple[StepProfile, float]:
    """Stream paying ``best`` on the left portion of each run at its bin's fraction.

    ``sf[k]`` is ``rate.sf`` at the start of run ``k``, and ``sf[-1]`` at
    the end of the last.  Returns the stream and the mass of its ``best``
    pieces, summed in time order.  Portions that touch (a whole run, then
    the start of the next) merge into one piece.
    """
    bounds: list[float] = []
    bound_sf: list[float] = []
    for (lo, hi, b), s_lo, s_hi in zip(runs, sf, sf[1:]):
        frac = fracs[b]
        if frac == 0.0:
            continue
        if frac == 1.0:
            end, s_end = hi, s_hi
        else:
            end = _prefix_end(rate, lo, hi, s_lo, s_hi, frac)
            s_end = math.exp(-rate.rate * end)
        if bounds and bounds[-1] == lo:
            bounds[-1], bound_sf[-1] = end, s_end
        else:
            bounds += (lo, end)
            bound_sf += (s_lo, s_end)
    mass = plain_sum([a - b for a, b in zip(bound_sf[::2], bound_sf[1::2])])
    # Bounds strictly increase from >= 0: a portion at 0 or to inf leaves a zero-width piece.
    return StepProfile._sorted(bounds, [worst, best] * (len(bounds) // 2) + [worst]), mass


def bracket_profile(
    model: DSEUModel, profile: StepProfile, n_bins: int
) -> BracketResult:
    """Sandwich a stream between two-outcome streams with gap at most 1/N.

    Bin ``n`` of the target is overwritten by the indicator stream of the
    left portion at fraction ``(n-1)/N`` (lower) or ``n/N`` (upper); the
    portions are carved per bin, so each indicator keeps its quota
    conditionally on every bin.  Both indicators and the bins come from one
    pass over the runs of consecutive pieces in one bin; each portion ends
    where ``ExpMeasure.split`` would cut the run, to the bit.  The survival
    at each run bound is computed once, for both indicators and their
    masses.  The gap is the upper indicator's ``best`` mass minus the lower
    one's.
    """
    worst, best, _, _ = _normalizer(model)
    runs = _runs(model, profile, n_bins)
    rate = model.discount
    r = rate.rate
    # The floats of ``rate.sf``: sf(inf), at the end of the last run, is 0.
    sf = [*[math.exp(-r * lo) for lo, _, _ in runs], 0.0]
    lower_frac = [(n - 1) / n_bins for n in range(1, n_bins + 1)]
    upper_frac = [n / n_bins for n in range(1, n_bins + 1)]
    lower, lower_mass = _indicator(rate, runs, sf, lower_frac, best, worst)
    upper, upper_mass = _indicator(rate, runs, sf, upper_frac, best, worst)
    return BracketResult(
        lower=lower, upper=upper, gap=upper_mass - lower_mass, bins=tuple(_bin_sets(runs, n_bins))
    )


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
    # Row k pays ``best`` on the prefix of mass k/N: constant ``worst`` at
    # k = 0, constant ``best`` at k = N.
    rows = [
        StepProfile.before_after(best, INF if k == n_bins else rate.quantile(k / n_bins), worst)
        for k in range(n_bins + 1)
    ]
    bin_of = {
        s: _bin_index((model.profile_value(act.row(s)) - u_lo) / span, n_bins) for s in act.states
    }
    lower_act = GridAct({s: rows[n - 1] for s, n in bin_of.items()})
    upper_act = GridAct({s: rows[n] for s, n in bin_of.items()})
    scale = DSEUModel(rate, UtilityModel({worst: 0.0, best: 1.0}), model.beliefs)
    gap = scale.act_value(upper_act) - scale.act_value(lower_act)
    return BracketResult(
        lower=lower_act,
        upper=upper_act,
        gap=gap,
        bins=tuple(
            frozenset(s for s, m in bin_of.items() if m == n) for n in range(1, n_bins + 1)
        ),
    )
