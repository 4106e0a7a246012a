"""Utility bins, independent selections, and the 1/N sandwich brackets."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.acts import GridAct, StepProfile
from dseu.bracketing import (
    _prefix_end,
    bracket_act,
    bracket_profile,
    independent_selection,
    utility_bins,
)
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeInterval, TimeSet

from level_sets import level_set

STATES = ("s0", "s1", "s2", "s3", "s4", "s5")
UTIL = {"lo": 0.0, "q1": 0.3, "mid": 0.5, "q3": 0.8, "hi": 1.0}


def model_for(rate=1.0, util=None, states=STATES) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(rate),
        UtilityModel(dict(util or UTIL)),
        Beliefs.uniform(states),
    )


def random_profile(rng, outcomes, max_pieces=6) -> StepProfile:
    n = rng.randint(1, max_pieces)
    cuts = sorted(rng.uniform(0.0, 7.0) for _ in range(n - 1))
    return StepProfile.from_breakpoints(cuts, [rng.choice(outcomes) for _ in range(n)])


# -- the selection reference ---------------------------------------------------
# utility_bins and bracket_profile as they were before the one-pass run
# construction: one interval per piece merged by TimeSet.from_pairs, and every
# portion carved by ExpMeasure.prefix_fraction and merged by TimeSet.from_pairs.


def ref_utility_bins(model, profile, n_bins):
    if n_bins < 1:
        raise ValueError(f"need at least one bin, got {n_bins}")
    worst, best = model.utility.anchors()
    u_lo = model.utility(worst)
    span = model.utility(best) - u_lo
    members = [[] for _ in range(n_bins)]
    for lo, hi, out in profile.segments():
        scaled = (model.utility(out) - u_lo) / span
        members[min(n_bins, int(scaled * n_bins) + 1) - 1].append((lo, hi))
    return [TimeSet.from_pairs(pairs) for pairs in members]


def ref_selection(rate, bins, fracs):
    picked = []
    for bin_set, frac in zip(bins, fracs):
        for lo, hi in bin_set:
            part = rate.prefix_fraction(TimeInterval(lo, hi), frac)
            if part is not None:
                picked.append((part.lo, part.hi))
    return TimeSet.from_pairs(picked)


def ref_two_level_profile(inside, best, worst):
    bounds = list(inside.bounds)
    outs = [worst, best] * (len(bounds) // 2) + [worst]
    return StepProfile.from_breakpoints(bounds, outs).normalized()


def ref_bracket_profile(model, profile, n_bins):
    worst, best = model.utility.anchors()
    bins = ref_utility_bins(model, profile, n_bins)
    rate = model.discount
    lower_frac = [(n - 1) / n_bins for n in range(1, n_bins + 1)]
    upper_frac = [n / n_bins for n in range(1, n_bins + 1)]
    lower = ref_two_level_profile(ref_selection(rate, bins, lower_frac), best, worst)
    upper = ref_two_level_profile(ref_selection(rate, bins, upper_frac), best, worst)
    gap = rate.mass(level_set(upper, best)) - rate.mass(level_set(lower, best))
    return lower, upper, gap, tuple(bins)


# Utilities 0.30 and 0.31 share a bin for every N up to 32, "q1" and "mid"
# share one for N <= 4.
SHARED_UTIL = {"lo": 0.0, "q1": 0.3, "q1b": 0.31, "mid": 0.45, "q3": 0.8, "hi": 1.0}


def draw_cuts(draw, rate):
    """Distinct times near 0 and in the far tail, some pairs one ulp apart."""
    tail = 745.2 / rate  # sf is 0.0 from here on, so pieces have mass 0.0
    times = st.one_of(
        st.floats(1e-3, 8.0),
        st.floats(tail, 4.0 * tail),
        st.sampled_from((0.5, 1.0, 2.0, tail)),
    )
    cuts = set()
    for t in draw(st.lists(times, max_size=12)):
        cuts.add(t)
        if draw(st.booleans()) and draw(st.booleans()):
            cuts.add(math.nextafter(t, INF))  # a piece one ulp wide
    return cuts


@st.composite
def bracket_cases(draw):
    """A rate, a profile with near, far-tail and ulp-wide pieces, and a bin count."""
    rate = draw(st.floats(0.2, 3.0))
    cuts = draw_cuts(draw, rate)
    n = len(cuts) + 1
    outs = draw(st.lists(st.sampled_from(tuple(SHARED_UTIL)), min_size=n, max_size=n))
    return rate, StepProfile(tuple(sorted(cuts)), tuple(outs)), draw(st.integers(1, 32))


@st.composite
def selection_cases(draw):
    """A rate, disjoint bins with near, far-tail (mass 0.0) and ulp-wide intervals, a fraction."""
    rate = draw(st.floats(0.2, 3.0))
    bounds = sorted(draw_cuts(draw, rate))
    if draw(st.booleans()):
        bounds.insert(0, 0.0)
    if len(bounds) % 2:
        bounds.append(INF)
    n_bins = draw(st.integers(1, 4))
    members = [[] for _ in range(n_bins)]
    for lo, hi in zip(bounds[::2], bounds[1::2]):
        members[draw(st.integers(0, n_bins - 1))] += (lo, hi)
    frac = draw(
        st.sampled_from((0.0, -0.0, 5e-324, 1e-17, 0.25, 0.5, 1.0 - 2**-53))
        | st.floats(0.0, 1.0, exclude_max=True)
    )
    return rate, [TimeSet(tuple(m)) for m in members], frac


class TestUtilityBins:
    def test_single_bin_is_everything(self):
        m = model_for()
        rng = random.Random(71)
        bins = utility_bins(m, random_profile(rng, list(UTIL)), 1)
        assert bins == [TimeSet.full()]

    def test_two_outcome_profile_bins_are_level_sets(self):
        m = model_for()
        p = StepProfile.from_breakpoints([1.0, 2.5], ["lo", "hi", "lo"])
        bins = utility_bins(m, p, 2)
        assert bins[0] == level_set(p, "lo")
        assert bins[1] == level_set(p, "hi")

    def test_membership_pointwise(self):
        m = model_for()
        rng = random.Random(72)
        n_bins = 8
        for _ in range(10):
            p = random_profile(rng, list(UTIL))
            bins = utility_bins(m, p, n_bins)
            for _ in range(100):
                t = rng.uniform(0.0, 10.0)
                u = UTIL[p.outcome_at(t)]
                member = [i for i, b in enumerate(bins) if b.contains(t)]
                assert len(member) == 1
                n = member[0] + 1
                assert (n - 1) / n_bins <= u <= n / n_bins

    def test_bins_tile_horizon(self):
        m = model_for()
        rng = random.Random(73)
        p = random_profile(rng, list(UTIL))
        bins = utility_bins(m, p, 5)
        union = TimeSet.empty()
        for b in bins:
            union = union.union(b)
        assert union == TimeSet.full()

    def test_rejects_bad_bin_count(self):
        m = model_for()
        with pytest.raises(ValueError):
            utility_bins(m, StepProfile.constant("lo"), 0)


class TestIndependentSelection:
    def test_zero_fraction_is_empty(self):
        rate = ExpMeasure(1.0)
        bins = [TimeSet.full()]
        assert independent_selection(rate, bins, 0.0).is_empty

    def test_single_bin_prefix(self):
        rate = ExpMeasure(1.0)
        got = independent_selection(rate, [TimeSet.full()], 0.5)
        assert len(got.bounds) == 2
        assert got.bounds[0] == 0.0
        assert got.bounds[1] == pytest.approx(rate.quantile(0.5), abs=1e-12)

    def test_per_bin_mass_ratios(self):
        rng = random.Random(74)
        m = model_for(rate=0.8)
        for _ in range(30):
            p = random_profile(rng, list(UTIL))
            bins = [b for b in utility_bins(m, p, 6)]
            got = independent_selection(m.discount, bins, 0.3)
            for b in bins:
                want = 0.3 * m.discount.mass(b)
                assert m.discount.mass(got.intersect(b)) == pytest.approx(
                    want, abs=1e-12
                )

    def test_product_independence(self):
        rng = random.Random(75)
        m = model_for(rate=1.2)
        p = random_profile(rng, list(UTIL))
        bins = utility_bins(m, p, 4)
        for frac in (0.25, 0.5, 0.75):
            got = independent_selection(m.discount, bins, frac)
            total = m.discount.mass(got)
            assert total == pytest.approx(frac, abs=1e-12)
            for b in bins:
                assert m.discount.mass(got.intersect(b)) == pytest.approx(
                    total * m.discount.mass(b), abs=1e-12
                )

    def test_rejects_unit_fraction(self):
        with pytest.raises(ValueError):
            independent_selection(ExpMeasure(1.0), [TimeSet.full()], 1.0)

    @pytest.mark.parametrize("frac", [-0.1, math.nan])
    def test_rejects_negative_or_nan_fraction(self, frac):
        with pytest.raises(ValueError, match=f"^target fraction must be >= 0, got {frac!r}$"):
            independent_selection(ExpMeasure(1.0), [TimeSet.full()], frac)

    @pytest.mark.identity
    @given(selection_cases())
    @settings(deadline=None)
    def test_matches_the_prefix_fraction_reference(self, case):
        rate, bins, frac = case
        measure = ExpMeasure(rate)
        try:
            want = ref_selection(measure, bins, [frac] * len(bins))
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                independent_selection(measure, bins, frac)
            return
        got = independent_selection(measure, bins, frac)
        assert [b.hex() for b in got.bounds] == [b.hex() for b in want.bounds]


class TestBracketProfile:
    def test_constant_profile(self):
        m = model_for()
        for n in (1, 2, 8):
            res = bracket_profile(m, StepProfile.constant("mid"), n)
            v = m.profile_value(StepProfile.constant("mid"))
            assert m.profile_value(res.lower) <= v + 1e-12
            assert m.profile_value(res.upper) >= v - 1e-12
            assert res.gap <= 1.0 / n + 1e-12

    def test_gaussian_quantized_profile(self):
        # 50-piece quantization of u(t) = exp(-t^2) on a fine grid
        levels = {f"g{k}": k / 20 for k in range(21)}
        m = model_for(util=levels)
        cuts = [0.1 * k for k in range(1, 50)]
        outs = []
        for lo in [0.0, *cuts]:
            u = math.exp(-lo * lo)
            outs.append(f"g{round(u * 20)}")
        p = StepProfile.from_breakpoints(cuts, outs)
        res = bracket_profile(m, p, 16)
        v = m.profile_value(p)
        assert m.profile_value(res.lower) <= v + 1e-12
        assert m.profile_value(res.upper) >= v - 1e-12
        assert res.gap <= 1.0 / 16 + 1e-12

    def test_gap_halves_as_bins_double(self):
        rng = random.Random(76)
        m = model_for()
        p = random_profile(rng, list(UTIL), max_pieces=8)
        v = m.profile_value(p)
        gaps = []
        for n in (2, 4, 8, 16, 32, 64):
            res = bracket_profile(m, p, n)
            gaps.append(res.gap)
            lo, hi = m.profile_value(res.lower), m.profile_value(res.upper)
            assert lo <= v + 1e-12 <= hi + 2e-12
            assert res.gap <= 1.0 / n + 1e-12
            # midpoint converges to the true value
            assert abs(v - 0.5 * (lo + hi)) <= 0.5 * (UTIL["hi"] - UTIL["lo"]) / n + 1e-12
        assert all(b <= a / 2 + 1e-12 for a, b in zip(gaps, gaps[1:]))

    def test_equals_per_bin_selections_merged_by_union(self):
        # Reference: each bin's left portion carved on its own, then merged
        # pairwise with ``union``, as bracket_profile once did.
        def pasted(rate, bins, fractions, best, worst):
            union = TimeSet.empty()
            for bin_set, frac in zip(bins, fractions):
                parts = [rate.prefix_fraction(TimeInterval(lo, hi), frac) for lo, hi in bin_set]
                union = union.union(TimeSet.from_pairs((p.lo, p.hi) for p in parts if p is not None))
            return ref_two_level_profile(union, best, worst)

        rng = random.Random(80)
        for _ in range(200):
            m = model_for(rate=rng.uniform(0.2, 3.0))
            p = random_profile(rng, list(UTIL), max_pieces=rng.choice((3, 12, 40)))
            n_bins = rng.randint(1, 32)
            bins = ref_utility_bins(m, p, n_bins)
            tops = [n / n_bins for n in range(1, n_bins + 1)]
            bottoms = [(n - 1) / n_bins for n in range(1, n_bins + 1)]
            lower = pasted(m.discount, bins, bottoms, "hi", "lo")
            upper = pasted(m.discount, bins, tops, "hi", "lo")
            mass = m.discount.mass
            gap = mass(level_set(upper, "hi")) - mass(level_set(lower, "hi"))
            got = bracket_profile(m, p, n_bins)
            assert (got.lower, got.upper, got.bins) == (lower, upper, tuple(bins))
            assert got.gap == gap

    @pytest.mark.identity
    @given(bracket_cases())
    @settings(deadline=None)
    def test_matches_the_selection_reference(self, case):
        rate, p, n_bins = case
        m = model_for(rate=rate, util=SHARED_UTIL)
        try:
            want = ref_bracket_profile(m, p, n_bins)
        except ValueError:
            with pytest.raises(ValueError):
                bracket_profile(m, p, n_bins)
            return
        got = bracket_profile(m, p, n_bins)
        assert (got.lower, got.upper, got.bins) == want[:2] + (want[3],)
        assert got.gap.hex() == want[2].hex()
        assert utility_bins(m, p, n_bins) == list(want[3])

    def test_far_tail_pieces_split_like_the_degenerate_split(self):
        # Past 745 / rate every piece has mass 0.0, and split tiles it evenly.
        m = model_for(rate=1.0, util=SHARED_UTIL)
        p = StepProfile((1.0, 800.0, 900.0), ("lo", "hi", "mid", "q3"))
        got = bracket_profile(m, p, 4)
        want = ref_bracket_profile(m, p, 4)
        assert (got.lower, got.upper, got.bins) == want[:2] + (want[3],)
        assert got.gap.hex() == want[2].hex()
        assert {850.0, 901.0} <= set(got.lower.cuts)

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (0.0, 1.0),
            (2.0, INF),
            (800.0, 900.0),  # sf 0.0 at both ends
            (900.0, INF),
            # sf is 5e-324 at both ends: mass 0.0, yet the log of sf would
            # cut at 744.44007, inside the interval.
            (744.4, 744.45),
            (744.45, INF),  # one subnormal of mass: every cut rounds onto an end
            (1.0, math.nextafter(1.0, INF)),
        ],
    )
    def test_prefix_end_is_the_end_of_the_first_split_piece(self, lo, hi):
        rate = ExpMeasure(1.0)
        for frac in (1 / 16, 0.25, 0.5, 0.75, 15 / 16):
            try:
                want = rate.split(TimeInterval(lo, hi), (frac, 1.0 - frac))[0].hi
            except ValueError:
                with pytest.raises(ValueError):
                    _prefix_end(rate, lo, hi, rate.sf(lo), rate.sf(hi), frac)
                continue
            assert _prefix_end(rate, lo, hi, rate.sf(lo), rate.sf(hi), frac).hex() == want.hex()

    def test_fraction_below_float_resolution_still_raises(self):
        # One ulp of positive mass: every cut rounds onto an end, so split raises.
        m = model_for(rate=1.0, util=SHARED_UTIL)
        p = StepProfile((1.0, math.nextafter(1.0, INF)), ("lo", "hi", "lo"))
        iv = TimeInterval(*p.cuts)
        assert m.discount.mass(iv) > 0.0
        with pytest.raises(ValueError):
            m.discount.split(iv, (0.5, 0.5))
        with pytest.raises(ValueError):
            ref_bracket_profile(m, p, 2)
        with pytest.raises(ValueError):
            bracket_profile(m, p, 2)


@st.composite
def bracket_act_cases(draw):
    """A model on 2-4 states, an act of 1-6 pieces per row, and a bin count of 1-16."""
    states = STATES[: draw(st.integers(2, 4))]
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=len(states), max_size=len(states)))
    model = DSEUModel(
        ExpMeasure(draw(st.floats(0.2, 3.0))),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(weights) for s, w in zip(states, weights)}),
    )
    rows = {}
    for s in states:
        n = draw(st.integers(1, 6))
        cuts = draw(st.lists(st.floats(1e-3, 8.0), min_size=n - 1, max_size=n - 1, unique=True))
        outs = draw(st.lists(st.sampled_from(tuple(UTIL)), min_size=n, max_size=n))
        rows[s] = StepProfile(tuple(sorted(cuts)), tuple(outs))
    return model, GridAct(rows), draw(st.integers(1, 16))


class TestBracketAct:
    def test_rejects_bad_bin_count(self):
        act = GridAct.constant(STATES, "lo")
        with pytest.raises(ValueError, match="^need at least one bin, got 0$"):
            bracket_act(model_for(), act, 0)

    @given(bracket_act_cases())
    @settings(deadline=None)
    def test_rows_are_the_prefix_indicators_of_each_state_bin(self, case):
        model, act, n_bins = case
        res = bracket_act(model, act, n_bins)
        # The bins partition the states.
        assert len(res.bins) == n_bins
        assert sorted(s for b in res.bins for s in b) == sorted(act.states)

        def indicator(fraction):
            # Constant "lo" at mass 0, constant "hi" at mass 1.
            if fraction == 0.0:
                return StepProfile.constant("lo")
            if fraction == 1.0:
                return StepProfile.constant("hi")
            return StepProfile.before_after("hi", model.discount.quantile(fraction), "lo")

        for n, members in enumerate(res.bins, start=1):
            for s in members:
                # UTIL runs from 0 to 1, so a row's value is already rescaled.
                scaled = model.profile_value(act.row(s))
                assert min(n_bins, int(scaled * n_bins) + 1) == n
                assert res.lower.row(s) == indicator((n - 1) / n_bins)
                assert res.upper.row(s) == indicator(n / n_bins)
        assert indicator(0.0) == StepProfile.before_after("hi", 0.0, "lo")
        assert indicator(1.0) == StepProfile.before_after("hi", INF, "lo")

    def test_deterministic_act_matches_profile_semantics(self):
        rng = random.Random(77)
        m = model_for()
        p = random_profile(rng, list(UTIL))
        act = GridAct.deterministic(STATES, p)
        res = bracket_act(m, act, 10)
        v = m.act_value(act)
        assert m.act_value(res.lower) <= v + 1e-12
        assert m.act_value(res.upper) >= v - 1e-12
        assert res.gap <= 0.1 + 1e-12
        # a deterministic act lands in a single conditional-value bin
        assert sum(1 for b in res.bins if b) == 1

    def test_random_acts_sandwich(self):
        rng = random.Random(78)
        m = model_for()
        for _ in range(30):
            act = GridAct({s: random_profile(rng, list(UTIL)) for s in STATES})
            res = bracket_act(m, act, 10)
            v = m.act_value(act)
            assert m.act_value(res.lower) <= v + 1e-12
            assert m.act_value(res.upper) >= v - 1e-12
            assert res.gap <= 0.1 + 1e-12

    def test_single_bin_gives_global_bounds(self):
        rng = random.Random(79)
        m = model_for()
        act = GridAct({s: random_profile(rng, list(UTIL)) for s in STATES})
        res = bracket_act(m, act, 1)
        assert res.lower == GridAct.constant(STATES, "lo")
        assert res.upper == GridAct.constant(STATES, "hi")
        assert res.gap == pytest.approx(1.0, abs=1e-12)

    def test_unnormalized_utilities_rescale(self):
        # same structure on a shifted and scaled utility: sandwich still holds
        util = {o: 5.0 * u - 2.0 for o, u in UTIL.items()}
        m = model_for(util=util)
        rng = random.Random(80)
        act = GridAct({s: random_profile(rng, list(UTIL)) for s in STATES})
        res = bracket_act(m, act, 8)
        v = m.act_value(act)
        assert m.act_value(res.lower) <= v + 1e-10
        assert m.act_value(res.upper) >= v - 1e-10
        assert res.gap <= 1.0 / 8 + 1e-12
