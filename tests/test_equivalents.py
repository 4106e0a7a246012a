"""Time equivalents: closed form, act version, and oracle bisection."""

import math
import random
import re
from functools import partial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dseu.acts import GridAct, StepProfile
from dseu.equivalents import (
    TimeEquivalent,
    _gallop,
    bisect_indifference,
    time_equivalent_act,
    time_equivalent_bisect,
    time_equivalent_value,
)
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    Preference,
    ProtocolError,
    SEUOracle,
    WidenedOracle,
)

import eager_endpoints
import flagged_search

STATES = ("s0", "s1")
UTIL = {"x": 1.0, "y": 0.0, "m": 0.35}


def model_for(rate=1.0, probs=(0.3, 0.7)) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(rate), UtilityModel(dict(UTIL)), Beliefs(dict(zip(STATES, probs)))
    )


class TestClosedForm:
    def test_bottom_value_gives_zero(self):
        te = time_equivalent_value(model_for(), 0.0, "x", "y")
        assert te.t == 0.0 and not te.is_whole_horizon

    def test_top_value_gives_whole_horizon(self):
        te = time_equivalent_value(model_for(), 1.0, "x", "y")
        assert te.is_whole_horizon
        assert te.profile("x", "y") == StepProfile.constant("x")

    def test_known_value(self):
        # v = 0.3 between u(y)=0 and u(x)=1 at rate 1: t = -ln(0.7)
        te = time_equivalent_value(model_for(), 0.3, "x", "y")
        assert te.t == pytest.approx(-math.log(0.7), abs=1e-15)
        m = model_for()
        assert m.profile_value(te.profile("x", "y")) == pytest.approx(0.3, abs=1e-12)

    def test_target_share_rounding_to_one_gives_whole_horizon(self):
        # (1 - u(y)) / (u(x) - u(y)) rounds to exactly 1.0 although v < u(x).
        m = DSEUModel(
            ExpMeasure(1.0), UtilityModel({"x": 2.0, "y": -1e20}), Beliefs({"s": 1.0})
        )
        assert time_equivalent_value(m, 1.0, "x", "y").is_whole_horizon

    def test_roundtrip_on_value_grid(self):
        m = model_for(rate=1.7)
        for k in range(100):
            v = k / 100
            te = time_equivalent_value(m, v, "x", "y")
            assert m.profile_value(te.profile("x", "y")) == pytest.approx(v, abs=1e-12)

    def test_monotone_in_target_value(self):
        m = model_for(rate=0.8)
        ts = [time_equivalent_value(m, k / 50, "x", "y").t for k in range(50)]
        assert all(a < b for a, b in zip(ts, ts[1:]))

    def test_domain_errors(self):
        m = model_for()
        with pytest.raises(ValueError):
            time_equivalent_value(m, 0.5, "y", "x")  # wrong ordering
        with pytest.raises(ValueError):
            time_equivalent_value(m, 1.5, "x", "y")  # outside bracket


class TestActVersion:
    def test_constant_bottom(self):
        m = model_for()
        te = time_equivalent_act(m, GridAct.constant(STATES, "y"), "x", "y")
        assert te.t == 0.0

    def test_bet_matches_probability_inversion(self):
        m = model_for(rate=1.0, probs=(0.3, 0.7))
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        te = time_equivalent_act(m, bet, "x", "y")
        assert te.t == pytest.approx(-math.log(0.7), abs=1e-12)

    def test_random_acts_roundtrip(self):
        rng = random.Random(41)
        m = model_for(rate=1.2, probs=(0.55, 0.45))
        for _ in range(100):
            rows = {}
            for s in STATES:
                n = rng.randint(1, 5)
                cuts = sorted(rng.uniform(0.0, 5.0) for _ in range(n - 1))
                rows[s] = StepProfile.from_breakpoints(
                    cuts, [rng.choice(list(UTIL)) for _ in range(n)]
                )
            act = GridAct(rows)
            te = time_equivalent_act(m, act, "x", "y")
            recovered = m.profile_value(te.profile("x", "y"))
            assert recovered == pytest.approx(m.act_value(act), abs=1e-12)

    def test_value_outside_bracket_reports_value(self):
        m = model_for()
        act = GridAct.constant(STATES, "x")
        with pytest.raises(ValueError, match="escapes the bracket"):
            time_equivalent_act(m, act, "m", "y")


class TestBisection:
    def test_constant_bottom_act(self):
        m = model_for()
        oracle = SEUOracle(m)
        te = time_equivalent_bisect(oracle, GridAct.constant(STATES, "y"), "x", "y")
        assert te.t == 0.0

    def test_seu_bet_recovers_probability(self):
        m = model_for(rate=1.0, probs=(0.3, 0.7))
        oracle = CountingOracle(SEUOracle(m))
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        te = time_equivalent_bisect(oracle, bet, "x", "y", tol=1e-9, rate=m.discount)
        assert not te.is_whole_horizon
        assert te.t == pytest.approx(-math.log(0.7), abs=1e-9)
        assert te.bracket_width <= 1e-9
        assert oracle.count <= 64

    def test_choquet_bet_inverts_capacity(self):
        util = UtilityModel({"x": 1.0, "y": 0.0})
        cap = Capacity(
            STATES,
            {
                frozenset(): 0.0,
                frozenset({"s0"}): 0.2,
                frozenset({"s1"}): 0.55,
                frozenset(STATES): 1.0,
            },
        )
        oracle = ChoquetOracle(ExpMeasure(1.0), util, cap)
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        te = time_equivalent_bisect(oracle, bet, "x", "y", tol=1e-9, rate=ExpMeasure(1.0))
        assert te.t == pytest.approx(-math.log(0.8), abs=1e-9)

    def test_agrees_with_closed_form_on_random_acts(self):
        rng = random.Random(42)
        for _ in range(50):
            m = model_for(rate=rng.uniform(0.4, 2.5), probs=(0.4, 0.6))
            oracle = SEUOracle(m)
            rows = {}
            for s in STATES:
                cuts = sorted(rng.uniform(0.0, 4.0) for _ in range(2))
                rows[s] = StepProfile.from_breakpoints(
                    cuts, [rng.choice(list(UTIL)) for _ in range(3)]
                )
            act = GridAct(rows)
            closed = time_equivalent_act(m, act, "x", "y")
            bisected = time_equivalent_bisect(oracle, act, "x", "y", tol=1e-9, rate=m.discount)
            if closed.is_whole_horizon:
                assert bisected.is_whole_horizon
            else:
                assert bisected.t == pytest.approx(closed.t, abs=1e-9)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-9])
    @pytest.mark.parametrize("hint", [None, 0.3])
    def test_tolerance_that_is_not_above_zero_is_rejected(self, tol, hint):
        # A NaN tolerance used to return t = 0.5 unhinted, and to raise a
        # float-to-integer ValueError from the gallop with a hint.
        m = model_for()
        oracle = CountingOracle(SEUOracle(m))
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        with pytest.raises(ValueError, match=f"^tolerance must be > 0, got {tol}$"):
            time_equivalent_bisect(oracle, bet, "x", "y", tol=tol, rate=m.discount, hint=hint)
        assert oracle.count == 0

    @pytest.mark.parametrize("hint", [None, 0.7])
    def test_infinite_tolerance_is_rejected(self, hint):
        # It used to return t = 0.5 unhinted, and to raise OverflowError from
        # the gallop's grid with a hint.
        m = model_for(probs=(0.5, 0.5))
        oracle = CountingOracle(SEUOracle(m))
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            time_equivalent_bisect(oracle, bet, "x", "y", tol=math.inf, hint=hint)
        assert oracle.count == 0

    def test_whole_horizon_for_top_act(self):
        m = model_for()
        oracle = SEUOracle(m)
        te = time_equivalent_bisect(oracle, GridAct.constant(STATES, "x"), "x", "y")
        assert te.is_whole_horizon

    def test_protocol_error_when_act_escapes_bracket(self):
        m = model_for()
        oracle = SEUOracle(m)
        act = GridAct.constant(STATES, "x")
        with pytest.raises(ProtocolError):
            time_equivalent_bisect(oracle, act, "m", "y")

    @pytest.mark.parametrize(
        "fn", [lambda f: math.nan, lambda f: math.inf], ids=["nan", "inf-minus-inf"]
    )
    def test_a_nan_value_difference_raises_instead_of_a_protocol_error(self, fn):
        # The first query's difference is NaN; it used to answer "second", so the
        # search ran to the ceiling and the top query blamed the act.
        oracle = CountingOracle(FunctionalOracle(fn))
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        with pytest.raises(ValueError, match="value difference of the two acts is nan"):
            time_equivalent_bisect(oracle, bet, "x", "y")
        assert oracle.count == 0

    def test_indifference_band_terminates_early(self):
        m = model_for()
        oracle = SEUOracle(m, band=1e-3)
        bet = GridAct.bet(STATES, {"s0"}, "x", "y")
        te = time_equivalent_bisect(oracle, bet, "x", "y", tol=1e-9, rate=m.discount)
        assert te.bracket_width == 0.0  # declared on an oracle tie
        assert m.profile_value(te.profile("x", "y")) == pytest.approx(
            m.act_value(bet), abs=2e-3
        )


class TestBeforeAfter:
    @pytest.mark.parametrize(
        "t", [0.0, -0.0, INF, math.nan, -1.0, -INF, 1e-300, 1.5, 2**60, 1]
    )
    def test_equals_from_breakpoints_or_raises_its_error(self, t):
        try:
            expected = StepProfile.from_breakpoints((t,), ("x", "y"))
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{re.escape(str(error))}$"):
                StepProfile.before_after("x", t, "y")
            return
        got = StepProfile.before_after("x", t, "y")
        assert got == expected
        assert list(map(type, got.cuts)) == list(map(type, expected.cuts))


class TestTimeEquivalentType:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TimeEquivalent(-0.1)

    def test_profile_moves_between_outcomes(self):
        te = TimeEquivalent(1.5)
        p = te.profile("x", "y")
        assert p.outcome_at(1.0) == "x"
        assert p.outcome_at(2.0) == "y"


class RecordingProbe:
    """Prefers the second side below ``switch``, is indifferent on
    ``[switch, switch + band)`` and prefers the first side from there on;
    always indifferent when ``switch`` is ``None``.  Logs each time asked.
    """

    def __init__(self, switch: float | None, band: float = 0.0) -> None:
        self.switch = switch
        self.band = band
        self.asked: list[float] = []

    def __call__(self, t: float) -> Preference:
        self.asked.append(t)
        if self.switch is None:
            return Preference.INDIFFERENT
        if t < self.switch:
            return Preference.STRICTLY_PREFERS_SECOND
        if t < self.switch + self.band:
            return Preference.INDIFFERENT
        return Preference.STRICTLY_PREFERS_FIRST


@st.composite
def hinted_searches(draw):
    """A monotone probe's switch and band, a ceiling (also infinite), a tolerance and a hint."""
    ceiling = draw(st.floats(1e-3, 1e3) | st.just(math.inf))
    # Switches, bands and hints are drawn on the finite part of the range.
    span = min(ceiling, 1e3)
    tol = draw(st.floats(1e-12, 1e-3))
    switch = draw(
        st.floats(0.0, 1.5 * span)
        | st.integers(0, 2**12).map(lambda k: k / 2**6)
        | st.just(math.inf)
    )
    band = draw(st.just(0.0) | st.floats(0.0, 1e-3) | st.floats(0.0, span))
    grid = 2.0 ** math.floor(math.log2(tol))
    hint = draw(
        st.just(switch)
        | st.integers(-40, 40).map(lambda k: max(0.0, switch + k * grid))
        | st.floats(0.0, 2.0 * span)
        | st.just(0.0)
        | st.floats(1.0, 1e6).map(lambda k: span * k)
        | st.just(math.inf)
        | st.just(math.nan)
    )
    return switch, band, ceiling, tol, hint


@st.composite
def close_hints(draw):
    """A monotone probe's switch, a ceiling, a tolerance and a hint less than half a grid cell off.

    The switch lies at least two grid cells above 0, and the ceiling (also
    infinite) at least twice above the switch and 1, so the doubling steps
    below the switch are all on the grid.
    """
    tol = draw(st.floats(1e-12, 1e-3))
    grid = 2.0 ** math.floor(math.log2(tol))
    switch = draw(
        st.floats(2.0 * grid, 1e3)
        | st.integers(2, 2**12).map(lambda k: k * grid)
        | st.integers(2, 2**12).map(lambda k: k / 2**6)
    )
    ceiling = draw(st.just(math.inf) | st.floats(2.0 * max(switch, 1.0), 1e12))
    hint = switch + draw(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True)) * grid
    assume(abs(hint - switch) < grid / 2)
    return switch, ceiling, tol, hint


def ref_bisect_indifference(probe, ceiling, tol, hint=None):
    """The search with its known steps answered by a wrapper around ``probe``."""
    if hint is not None:
        second_below, first_above = _gallop(probe, hint, ceiling, tol)
        ask = probe

        def probe(t):
            if t <= second_below:
                return Preference.STRICTLY_PREFERS_SECOND
            if t >= first_above:
                return Preference.STRICTLY_PREFERS_FIRST
            return ask(t)

    lo = 0.0
    hi = min(1.0, ceiling)
    while True:
        answer = probe(hi)
        if answer is Preference.INDIFFERENT:
            return hi, 0.0
        if answer is Preference.STRICTLY_PREFERS_FIRST:
            break
        if hi >= ceiling:
            return None
        lo, hi = hi, min(hi * 2.0, ceiling)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        answer = probe(mid)
        if answer is Preference.INDIFFERENT:
            return mid, 0.0
        if answer is Preference.STRICTLY_PREFERS_FIRST:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), hi - lo


class ScrambledProbe:
    """Answers drawn from ``t`` and a seed, with no monotonicity; logs each time asked."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.asked: list[float] = []

    def __call__(self, t: float) -> Preference:
        self.asked.append(t)
        return random.Random(f"{self.seed}:{t!r}").choice(list(Preference))


@st.composite
def searches(draw):
    """A probe factory, a ceiling (also infinite), a tolerance and a hint or none."""
    ceiling = draw(st.floats(1e-3, 1e3) | st.just(math.inf))
    tol = draw(st.floats(1e-12, 1e-3))
    if draw(st.booleans()):
        seed = draw(st.integers(0, 2**16))
        make = partial(ScrambledProbe, seed)
    else:
        top = 1e3 if ceiling == math.inf else 1.5 * ceiling
        switch = draw(st.floats(0.0, top) | st.just(math.inf))
        band = draw(st.just(0.0) | st.floats(0.0, 1e-3) | st.floats(0.0, 1.0))
        make = partial(RecordingProbe, switch, band)
    hint = draw(st.none() | st.floats(0.0, 2e3) | st.just(0.0) | st.just(math.inf))
    return make, ceiling, tol, hint


@st.composite
def gallop_cells(draw):
    """A probe factory, a ceiling, a tolerance and a hint, the hint within a few cells of the switch.

    Tolerances reach past 1 and off the powers of two.  Ceilings lie below 1,
    on or between powers of two, or at infinity.  The switch sits a few
    cells from the ceiling, from the last power of two at or below it, or
    anywhere below it, and the hint near the switch or at and above the
    ceiling, so the gallop's bracket is one cell, on the grid or off it,
    or wider.  Probes are strict, banded or scrambled.
    """
    tol = draw(
        st.floats(1e-12, 3.0)
        | st.integers(-40, 1).map(lambda k: 2.0**k)
        | st.sampled_from((0.3, 1.0, 1.5, 2.0))
    )
    grid = 2.0 ** math.floor(math.log2(tol))
    ceiling = draw(
        st.floats(0.01, 0.99)
        | st.just(math.inf)
        | st.integers(0, 40).map(lambda k: 2.0**k)
        | st.integers(0, 40).map(lambda k: 2.0**k * 1.5)
        | st.floats(1.0, 1e12)
    )
    span = min(ceiling, 2.0**30)
    power = 2.0 ** math.floor(math.log2(span))
    anchor = draw(st.sampled_from((span, power)) | st.floats(0.0, span))
    cells = draw(st.integers(-3, 3)) + draw(st.sampled_from((0.0, 0.5)) | st.floats(-1.0, 1.0))
    switch = max(0.0, anchor + cells * grid)
    hint = draw(
        st.just(switch)
        | st.integers(-2, 2).map(lambda k: switch + k * grid)
        | st.floats(-1.0, 1.0).map(lambda k: switch + k * grid)
        | st.just(ceiling)
        | st.floats(1.0, 4.0).map(lambda k: span * k)
    )
    kind = draw(st.sampled_from(("strict", "banded", "scrambled")))
    if kind == "scrambled":
        make = partial(ScrambledProbe, draw(st.integers(0, 2**16)))
    else:
        band = 0.0 if kind == "strict" else draw(st.floats(0.0, 3.0 * grid))
        make = partial(RecordingProbe, switch, band)
    return make, ceiling, tol, hint


def replayed(probe, ceiling, tol, hint):
    """The search of ``flagged_search``, which replays the loops after every gallop."""
    found = flagged_search._search(probe, ceiling, tol, hint)
    return None if found is None else found[:2]


class TestBisectIndifference:
    @pytest.mark.identity
    @given(searches())
    @settings(deadline=None)
    def test_asks_and_returns_what_the_wrapper_search_did(self, search):
        make, ceiling, tol, hint = search
        probe, ref = make(), make()
        got = bisect_indifference(probe, ceiling, tol, hint)
        assert got == ref_bisect_indifference(ref, ceiling, tol, hint)
        assert probe.asked == ref.asked

    @pytest.mark.identity
    @given(gallop_cells())
    @settings(deadline=None)
    def test_close_at_the_gallops_cell_asks_and_returns_what_the_replay_did(self, search):
        make, ceiling, tol, hint = search
        probe, ref = make(), make()
        assert bisect_indifference(probe, ceiling, tol, hint) == replayed(ref, ceiling, tol, hint)
        assert probe.asked == ref.asked

    @pytest.mark.parametrize(
        "switch, ceiling, tol, hint",
        [
            (0.3 + 2.0**-22, 1e12, 2.0**-20, 0.3),
            (5.0 + 1e-7, math.inf, 1e-9, 5.0 + 1e-7),
            (1.5, 2.0, 0.3, 1.4),
            # Its top cell bound is 2**53 cells, the largest that keeps every
            # midpoint of the replay exact.
            (2.0**33, math.inf, 2.0**-20, 2.0**33 - 2.0**-20),
        ],
    )
    def test_one_aligned_cell_closes_the_search_unasked(self, switch, ceiling, tol, hint):
        probe, ref = RecordingProbe(switch), RecordingProbe(switch)
        t, width = bisect_indifference(probe, ceiling, tol, hint)
        assert (t, width) == replayed(ref, ceiling, tol, hint)
        assert probe.asked == ref.asked
        assert len(probe.asked) == 2
        lo, hi = sorted(probe.asked)
        assert width == hi - lo == 2.0 ** math.floor(math.log2(tol))
        assert t == 0.5 * (lo + hi)

    def test_cell_off_the_grid_is_replayed(self):
        # The start is capped at the ceiling, 1.18, and the gallop brackets
        # the switch by (0.68, 0.93): one cell wide, but off the grid of
        # 0.25.  The replay asks the grid point 0.75 inside it; closing at
        # the gallop's cell would give about (0.805, 0.25).
        probe = RecordingProbe(0.8)
        assert bisect_indifference(probe, 1.18, 0.3, 5.0) == (0.875, 0.25)
        assert probe.asked == [1.18, 1.18 - 0.25, 1.18 - 0.5, 0.75]

    def test_unhinted_search_asks_every_step_up_to_an_infinite_ceiling(self):
        asked = []

        def never_first(t: float) -> Preference:
            asked.append(t)
            return Preference.STRICTLY_PREFERS_SECOND

        assert bisect_indifference(never_first, math.inf, 1e-9) is None
        assert asked == [2.0**k for k in range(1024)] + [math.inf]

    def test_indifferent_probe_returns_at_once(self):
        probe = RecordingProbe(None)
        assert bisect_indifference(probe, 100.0, 1e-9) == (1.0, 0.0)
        assert probe.asked == [1.0]

    def test_first_probe_is_capped_by_the_ceiling(self):
        probe = RecordingProbe(None)
        assert bisect_indifference(probe, 0.25, 1e-9) == (0.25, 0.0)

    def test_none_after_probing_the_ceiling_itself(self):
        probe = RecordingProbe(math.inf)
        assert bisect_indifference(probe, 10.0, 1e-9) is None
        assert probe.asked == [1.0, 2.0, 4.0, 8.0, 10.0]

    @pytest.mark.parametrize("switch", [0.3, 1.0, 1.7, 5.0, 1000.3])
    def test_bracket_and_query_count(self, switch):
        tol = 2.0**-20
        probe = RecordingProbe(switch)
        t, width = bisect_indifference(probe, 1e12, tol)
        assert 0.0 < width <= tol
        assert abs(t - switch) <= width / 2
        # Upper bounds 1, 2, 4, ... up to the first one >= switch; the bracket
        # they leave is 1 wide, or half the last bound, and every halving
        # query narrows it by 2 until it is at most tol.
        doublings = max(0, math.ceil(math.log2(switch))) + 1
        width0 = 2.0 ** (doublings - 2) if doublings > 1 else 1.0
        halvings = math.ceil(math.log2(width0 / tol))
        assert len(probe.asked) == doublings + halvings

    @pytest.mark.identity
    @given(hinted_searches())
    @example((math.inf, 0.0, math.inf, 1e-9, 5.0))
    @example((math.inf, 0.0, math.inf, 1e-9, math.inf))
    @example((5.0, 0.0, math.inf, 1e-9, math.inf))
    @example((5.0, 0.0, math.inf, 1e-9, 1e300))
    @settings(deadline=None)
    def test_hint_keeps_the_result_and_costs_at_most_three_probes(self, search):
        switch, band, ceiling, tol, hint = search
        cold, warm = RecordingProbe(switch, band), RecordingProbe(switch, band)
        assert bisect_indifference(warm, ceiling, tol, hint) == bisect_indifference(
            cold, ceiling, tol
        )
        assert len(warm.asked) <= len(cold.asked) + 3

    @pytest.mark.identity
    @given(close_hints())
    @example((1.0, math.inf, 2.0**-20, 1.0))
    @example((3.0 * 2.0**-20, math.inf, 2.0**-20, 3.5 * 2.0**-20 - 2.0**-60))
    @settings(deadline=None)
    def test_hint_within_half_a_cell_costs_two_probes(self, search):
        switch, ceiling, tol, hint = search
        cold, warm = RecordingProbe(switch), RecordingProbe(switch)
        assert bisect_indifference(warm, ceiling, tol, hint) == bisect_indifference(
            cold, ceiling, tol
        )
        assert len(warm.asked) == 2

    @pytest.mark.parametrize("switch", [0.3, 1.0 + 1e-7, 1.7, 5.0 + 1e-7, 1000.3])
    def test_exact_hint_asks_only_the_two_ends_of_its_cell(self, switch):
        tol = 2.0**-20
        probe = RecordingProbe(switch)
        t, width = bisect_indifference(probe, 1e12, tol, hint=switch)
        assert (t, width) == bisect_indifference(RecordingProbe(switch), 1e12, tol)
        # The end nearer the switch first.
        cell = math.floor(switch / tol) * tol
        ends = [cell, cell + tol] if switch - cell < tol / 2 else [cell + tol, cell]
        assert probe.asked == ends

    @pytest.mark.parametrize(
        "tol, message",
        [
            (math.nan, "must be > 0, got nan"),
            (0.0, "must be > 0, got 0.0"),
            (-1e-9, "must be > 0, got -1e-09"),
            (math.inf, "must be finite, got inf"),
        ],
    )
    @pytest.mark.parametrize("hint", [None, 0.7])
    def test_tolerance_is_checked_before_any_probe(self, tol, message, hint):
        # Unhinted, tol=nan used to return (0.5, 1.0) after one probe; hinted,
        # tol=inf raised OverflowError from the gallop's grid.
        probe = RecordingProbe(0.3)
        with pytest.raises(ValueError, match=f"^tolerance {message}$"):
            bisect_indifference(probe, 10.0, tol, hint)
        assert probe.asked == []

    @pytest.mark.parametrize("ceiling", [math.nan, 0.0, -0.0, -5.0, -math.inf])
    @pytest.mark.parametrize(
        "answer", [Preference.STRICTLY_PREFERS_FIRST, Preference.STRICTLY_PREFERS_SECOND]
    )
    @pytest.mark.parametrize("hint", [None, 0.7])
    def test_ceiling_not_above_zero_is_rejected_before_any_probe(self, ceiling, answer, hint):
        # A NaN ceiling used to probe t = inf without end when every answer
        # was "second"; -5.0 probed -5.0 and returned (-2.5, -5.0), and 0.0
        # returned (0.0, 0.0), when every answer was "first".
        asked = []

        def probe(t: float) -> Preference:
            if len(asked) >= 1000:
                raise RuntimeError("the search did not end")
            asked.append(t)
            return answer

        with pytest.raises(ValueError, match=f"^search ceiling must be > 0, got {ceiling}$"):
            bisect_indifference(probe, ceiling, 1e-9, hint)
        assert asked == []

    def test_tolerance_below_the_float_spacing_still_ends(self):
        # Near 1e6 adjacent floats are about 1.2e-10 apart, so no bracket
        # gets as narrow as tol; the search stops at two adjacent floats.
        switch = 1e6 + 0.3
        probe = RecordingProbe(switch)

        def bounded(t: float) -> Preference:
            if len(probe.asked) >= 10_000:
                raise RuntimeError("the search did not end")
            return probe(t)

        t, width = bisect_indifference(bounded, 1e12, 1e-12)
        assert width == math.ulp(switch)
        assert switch - width <= t <= switch
        assert len(probe.asked) < 100

    def test_indifference_met_while_galloping_is_not_used(self):
        # The band covers the hint, a grid point, so the gallop stops at its
        # first probe; the search then meets the band where the cold search does.
        probe = RecordingProbe(1.3, band=0.5)
        assert bisect_indifference(probe, 100.0, 1e-9, hint=1.5) == (1.5, 0.0)
        assert probe.asked == [1.5, 1.0, 2.0, 1.5]


# -- end queries after the probes, against the search that asked them first ----

LADDER = {"top": 1.6, "x": 1.0, "m": 0.35, "y": 0.0, "bottom": -0.4}
BRACKETS = [("x", "y"), ("m", "y"), ("x", "m"), ("top", "bottom"), ("x", "bottom"), ("top", "y")]
STATES3 = ("s0", "s1", "s2")


@st.composite
def ladder_rows(draw):
    cuts = sorted(set(draw(st.lists(st.floats(0.01, 5.0), max_size=3))))
    outs = draw(st.lists(st.sampled_from(tuple(LADDER)), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return StepProfile.from_breakpoints(cuts, outs)


@st.composite
def monotone_searches(draw):
    """A factory of weakly monotone oracles, an act, a bracket, a tolerance, a rate and a hint.

    The oracles are SEU or Choquet, unwrapped, banded, widened or counted;
    the acts are bets on the bracket, constants of any outcome and random
    rows, so some escape the bracket at either end.
    """
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
    model = DSEUModel(
        ExpMeasure(draw(st.floats(0.2, 3.0))),
        UtilityModel(dict(LADDER)),
        Beliefs({s: w / sum(raw) for s, w in zip(STATES3, raw)}),
    )
    base = draw(st.sampled_from(("seu", "choquet")))
    wrap = draw(st.sampled_from(("none", "banded", "widened", "counting")))
    band = draw(st.sampled_from((0.0, 1e-3)) | st.floats(0.0, 0.2))
    capacity = Capacity.epsilon_contamination(model.beliefs, draw(st.floats(0.0, 1.0)))

    def make():
        own_band = band if wrap == "banded" else 0.0
        if base == "seu":
            oracle = SEUOracle(model, own_band)
        else:
            oracle = ChoquetOracle(model.discount, model.utility, capacity, own_band)
        if wrap == "widened":
            return WidenedOracle(oracle, band)
        if wrap == "counting":
            return CountingOracle(oracle)
        return oracle

    x, y = draw(st.sampled_from(BRACKETS))
    kind = draw(st.sampled_from(("bet", "constant", "rows")))
    if kind == "bet":
        event = draw(st.sets(st.sampled_from(STATES3)))
        f = GridAct.bet(STATES3, event, x, y)
    elif kind == "constant":
        f = GridAct.constant(STATES3, draw(st.sampled_from(tuple(LADDER))))
    else:
        f = GridAct({s: draw(ladder_rows()) for s in STATES3})
    tol = draw(st.floats(1e-9, 1e-2))
    rate = draw(st.none() | st.just(model.discount))
    hint = draw(st.none() | st.floats(0.0, 20.0) | st.just(0.0) | st.just(math.inf))
    return make, f, x, y, tol, rate, hint


def search_outcome(search, oracle, f, x, y, tol, rate, hint):
    """The result's bits, or the protocol error's message, and the queries asked."""
    counting = CountingOracle(oracle)
    try:
        te = search(counting, f, x, y, tol, rate=rate, hint=hint)
    except ProtocolError as err:
        return ("ProtocolError", str(err)), counting.count
    t = None if te.t is None else te.t.hex()
    return (t, te.bracket_width.hex()), counting.count


class TestLazyEndQueries:
    @pytest.mark.identity
    @given(monotone_searches())
    @settings(deadline=None)
    def test_results_and_errors_match_the_eager_search(self, search):
        make, *args = search
        got, asked = search_outcome(time_equivalent_bisect, make(), *args)
        want, eager_asked = search_outcome(eager_endpoints.time_equivalent_bisect, make(), *args)
        assert got == want
        # Past its two end queries the reference asked the same probes; an
        # act it settled at an end query is searched first now.
        if eager_asked > 2:
            assert eager_asked - 2 <= asked <= eager_asked

    @pytest.mark.parametrize(
        "outcome, x, y",
        [("x", "x", "y"), ("x", "m", "y"), ("y", "x", "y"), ("y", "x", "m")],
        ids=["whole-horizon", "above-x", "zero", "below-y"],
    )
    @pytest.mark.parametrize("rate", [None, ExpMeasure(1.0)])
    def test_constant_acts_end_as_the_eager_search(self, outcome, x, y, rate):
        # The cases of test_whole_horizon_for_top_act and
        # test_protocol_error_when_act_escapes_bracket, and their mirrors.
        act = GridAct.constant(STATES, outcome)
        args = act, x, y, 1e-9, rate, None
        got, _ = search_outcome(time_equivalent_bisect, SEUOracle(model_for()), *args)
        want, _ = search_outcome(eager_endpoints.time_equivalent_bisect, SEUOracle(model_for()), *args)
        assert got == want


# -- end queries read from the probe's answers, against the flagged search ------


class ScrambledOracle:
    """An oracle whose answers are each, with probability ``p``, drawn from the acts and a seed."""

    def __init__(self, inner, seed: int, p: float) -> None:
        self.inner, self.seed, self.p = inner, seed, p

    def compare(self, f: GridAct, g: GridAct) -> Preference:
        draw = random.Random(f"{self.seed}:{f!r}:{g!r}")
        if draw.random() < self.p:
            return draw.choice(list(Preference))
        return self.inner.compare(f, g)


@st.composite
def scrambled_searches(draw):
    """:func:`monotone_searches` with answers scrambled, at any rate, and NaN hints too."""
    make, f, x, y, tol, rate, _ = draw(monotone_searches())
    seed = draw(st.integers(0, 2**16))
    p = draw(st.sampled_from((0.0, 1.0)) | st.floats(0.0, 1.0))
    hint = draw(
        st.none() | st.sampled_from((0.0, math.inf, math.nan)) | st.floats(0.0, 20.0)
    )
    return (lambda: ScrambledOracle(make(), seed, p)), f, x, y, tol, rate, hint


def logged_outcome(search, oracle, f, x, y, tol, rate, hint):
    """The result's bits, or the protocol error's message, and every query with its answer."""
    logged = CountingOracle(oracle, keep_log=True)
    try:
        te = search(logged, f, x, y, tol, rate=rate, hint=hint)
    except ProtocolError as err:
        return ("ProtocolError", str(err)), logged.log
    t = None if te.t is None else te.t.hex()
    return (t, te.bracket_width.hex()), logged.log


class TestEndQueriesFromAnswers:
    @pytest.mark.identity
    @given(scrambled_searches())
    @settings(deadline=None)
    def test_asks_and_returns_what_the_flagged_search_did(self, search):
        make, *args = search
        got, log = logged_outcome(time_equivalent_bisect, make(), *args)
        want, flagged_log = logged_outcome(flagged_search.time_equivalent_bisect, make(), *args)
        assert got == want
        assert log == flagged_log


@pytest.mark.parametrize("rate", [None, ExpMeasure(1.0)])
def test_equal_outcomes_raise_before_any_query(rate):
    # It used to return t = 0.0.
    model = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel({"x": 1.0, "y": 0.0}),
        Beliefs({"a": 0.5, "b": 0.3, "c": 0.2}),
    )
    oracle = CountingOracle(SEUOracle(model))
    f = GridAct.constant(("a", "b", "c"), "x")
    with pytest.raises(ValueError, match="the two outcomes must differ, got 'x' twice"):
        time_equivalent_bisect(oracle, f, "x", "x", rate=rate)
    assert oracle.count == 0
