"""Lottery reduction, mixtures, realization, and the mixture identity."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.aa import (
    Lottery,
    LotteryAct,
    aa_value,
    continuity_witness,
    independence_witness,
    mix,
    realize_lottery,
    realize_lottery_act,
    reduce_act,
    reduce_profile,
    reduce_profile_on,
)
from dseu.acts import GridAct, StepProfile
from dseu.equivalents import time_equivalent_act
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeInterval

from level_sets import level_set

STATES = ("s0", "s1", "s2")
UTIL = {"a": 0.0, "b": 1.0, "c": 0.3, "d": 0.55}


def model_for(rate=1.0, probs=(0.5, 0.3, 0.2)) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(rate), UtilityModel(dict(UTIL)), Beliefs(dict(zip(STATES, probs)))
    )


def random_profile(rng, max_pieces=6) -> StepProfile:
    n = rng.randint(1, max_pieces)
    cuts = sorted(rng.uniform(0.0, 6.0) for _ in range(n - 1))
    return StepProfile.from_breakpoints(cuts, [rng.choice(list(UTIL)) for _ in range(n)])


def random_act(rng) -> GridAct:
    return GridAct({s: random_profile(rng) for s in STATES})


def random_lottery_act(rng, support=("a", "b", "c")) -> LotteryAct:
    lots = {}
    for s in STATES:
        raw = [rng.uniform(0.05, 1.0) for _ in support]
        lots[s] = Lottery({o: w / sum(raw) for o, w in zip(support, raw)})
    return LotteryAct(lots)


def ref_reduce_profile(rate, profile):
    """``reduce_profile`` as it was: one ``rate.sf`` call per bound."""
    probs = {}
    sf = [rate.sf(t) for t in (0.0, *profile.cuts, INF)]
    for a, b, out in zip(sf, sf[1:], profile.outs):
        probs[out] = probs.get(out, 0.0) + (a - b)
    return Lottery(probs)


@st.composite
def rated_profiles(draw):
    """A rate and a profile with cuts near 0, in the bulk and past ``745 / rate``."""
    rate = draw(st.floats(1e-3, 50.0))
    tail = 745.2 / rate  # sf is 0.0 from here on
    cuts = draw(
        st.lists(
            st.floats(1e-300, 1e-3) | st.floats(1e-3, 10.0) | st.floats(0.9 * tail, 4.0 * tail),
            max_size=12,
            unique=True,
        )
    )
    n = len(cuts) + 1
    outs = draw(st.lists(st.sampled_from(tuple(UTIL)), min_size=n, max_size=n))
    return ExpMeasure(rate), StepProfile(tuple(sorted(cuts)), tuple(outs))


class TestReduce:
    @pytest.mark.identity
    @given(rated_profiles())
    @settings(deadline=None)
    def test_matches_the_per_cut_survival_reference(self, case):
        rate, p = case
        got, want = reduce_profile(rate, p).probs, ref_reduce_profile(rate, p).probs
        assert [(o, q.hex()) for o, q in got.items()] == [(o, q.hex()) for o, q in want.items()]

    def test_constant_profile_degenerate(self):
        got = reduce_profile(ExpMeasure(1.3), StepProfile.constant("b"))
        assert got == Lottery.degenerate("b")

    def test_half_life_split(self):
        rate = ExpMeasure(math.log(2.0))
        got = reduce_profile(rate, StepProfile.before_after("b", 1.0, "a"))
        assert got.prob("b") == 0.5
        assert got.prob("a") == 0.5

    def test_masses_match_level_sets(self):
        rng = random.Random(61)
        rate = ExpMeasure(0.9)
        for _ in range(100):
            p = random_profile(rng)
            lot = reduce_profile(rate, p)
            for out in p.outcomes:
                assert lot.prob(out) == pytest.approx(
                    rate.mass(level_set(p, out)), abs=1e-12
                )

    def test_reduce_act_statewise(self):
        rng = random.Random(62)
        rate = ExpMeasure(1.0)
        act = random_act(rng)
        reduced = reduce_act(rate, act)
        for s in STATES:
            assert reduced.at(s).distance(reduce_profile(rate, act.row(s))) == 0.0
        det = GridAct.deterministic(STATES, random_profile(rng))
        red_det = reduce_act(rate, det)
        assert all(red_det.at(s).distance(red_det.at(STATES[0])) == 0.0 for s in STATES)
        sto = GridAct.stochastic({"s0": "a", "s1": "b", "s2": "c"})
        red_sto = reduce_act(rate, sto)
        for s, out in (("s0", "a"), ("s1", "b"), ("s2", "c")):
            assert red_sto.at(s) == Lottery.degenerate(out)


class TestMix:
    def test_endpoint_weights(self):
        rng = random.Random(63)
        a, b = random_lottery_act(rng), random_lottery_act(rng)
        assert mix(a, b, 1.0).distance(a) == 0.0
        assert mix(a, b, 0.0).distance(b) == 0.0

    def test_even_mix_of_degenerates(self):
        a = LotteryAct({s: Lottery.degenerate("a") for s in STATES})
        b = LotteryAct({s: Lottery.degenerate("b") for s in STATES})
        got = mix(a, b, 0.5)
        for s in STATES:
            assert got.at(s).prob("a") == 0.5
            assert got.at(s).prob("b") == 0.5

    def test_weight_validation(self):
        rng = random.Random(64)
        a, b = random_lottery_act(rng), random_lottery_act(rng)
        with pytest.raises(ValueError):
            mix(a, b, 1.2)

    def test_acts_on_other_states_are_rejected(self):
        a = LotteryAct({"s0": Lottery.degenerate("a")})
        b = LotteryAct({"s1": Lottery.degenerate("a")})
        with pytest.raises(ValueError, match="^cannot mix lottery acts on different state spaces$"):
            mix(a, b, 0.5)
        with pytest.raises(ValueError, match="^lottery acts live on different state spaces$"):
            a.distance(b)


class TestLotteryInputs:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Lottery({"a": -0.5, "b": 1.5}), "probability of 'a' must be >= 0, got -0.5"),
            (lambda: Lottery({"a": math.nan, "b": 1.0}), "probability of 'a' must be >= 0, got nan"),
            (lambda: Lottery({"a": 0.5, "b": 0.4}), "lottery probabilities must sum to 1"),
            (lambda: LotteryAct({}), "a lottery act needs at least one state"),
        ],
        ids=["negative", "nan", "sum", "no-state"],
    )
    def test_malformed_lottery_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_window_without_mass_is_rejected(self):
        with pytest.raises(ValueError, match=r"^window \[800.0, inf\) carries no mass$"):
            reduce_profile_on(ExpMeasure(1.0), StepProfile.constant("a"), TimeInterval(800.0, INF))

    @pytest.mark.parametrize("t", [0.0, INF, math.nan])
    def test_realization_window_must_be_positive_and_finite(self, t):
        act = LotteryAct({"s0": Lottery.degenerate("a")})
        with pytest.raises(ValueError, match="^realization window end must be positive and finite"):
            realize_lottery_act(ExpMeasure(1.0), t, act)


class TestRealize:
    def test_degenerate_single_piece(self):
        rate = ExpMeasure(1.0)
        got = realize_lottery(rate, TimeInterval(0.0, 2.0), Lottery.degenerate("a"))
        assert got == ((TimeInterval(0.0, 2.0), "a"),)

    def test_even_split_boundary(self):
        rate = ExpMeasure(1.0)
        window = TimeInterval(0.0, 1.0)
        got = realize_lottery(rate, window, Lottery({"a": 0.5, "b": 0.5}))
        washer = rate.mass(window)
        for iv, _ in got:
            assert rate.mass(iv) == pytest.approx(0.5 * washer, abs=1e-12)

    def test_three_outcome_masses_proportional(self):
        rate = ExpMeasure(0.7)
        window = TimeInterval(0.5, 3.0)
        lot = Lottery({"a": 0.2, "b": 0.5, "c": 0.3})
        got = realize_lottery(rate, window, lot)
        total = rate.mass(window)
        by_outcome = {out: rate.mass(iv) for iv, out in got}
        for out in lot.support:
            assert by_outcome[out] == pytest.approx(lot.prob(out) * total, abs=1e-12)

    def test_realized_act_conditional_distribution(self):
        rng = random.Random(65)
        rate = ExpMeasure(1.1)
        for _ in range(50):
            g = random_lottery_act(rng)
            t = rng.uniform(0.2, 4.0)
            head = realize_lottery_act(rate, t, g)
            window = TimeInterval(0.0, t)
            for s in STATES:
                conditional = reduce_profile_on(rate, head.row(s), window)
                assert conditional.distance(g.at(s)) <= 1e-12

    def test_rational_lotteries_recover_exactly(self):
        # rational shares; conditional reduction returns them within the
        # module's lottery-equality tolerance
        rate = ExpMeasure(2.0)
        shares = [Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]
        lot = Lottery({o: float(fr) for o, fr in zip(("a", "b", "c"), shares)})
        act = LotteryAct({s: lot for s in STATES})
        head = realize_lottery_act(rate, 1.5, act)
        for s in STATES:
            conditional = reduce_profile_on(rate, head.row(s), TimeInterval(0.0, 1.5))
            assert conditional.distance(lot) <= 1e-12


class TestIndependenceWitness:
    def test_small_time_approaches_tail_reduction(self):
        rng = random.Random(66)
        rate = ExpMeasure(1.0)
        g = random_lottery_act(rng)
        f = random_act(rng)
        lhs, rhs = independence_witness(rate, 1e-9, g, f)
        tail = reduce_act(rate, f)
        assert lhs.distance(tail) <= 1e-8
        assert rhs.distance(tail) <= 1e-8

    def test_degenerate_head_at_constant_tail(self):
        rate = ExpMeasure(1.0)
        g = LotteryAct({s: Lottery.degenerate("b") for s in STATES})
        f = GridAct.constant(STATES, "b")
        lhs, rhs = independence_witness(rate, 1.0, g, f)
        for s in STATES:
            assert lhs.at(s) == Lottery.degenerate("b")
            assert rhs.at(s) == Lottery.degenerate("b")

    def test_identity_on_random_inputs(self):
        rng = random.Random(67)
        for _ in range(200):
            rate = ExpMeasure(rng.uniform(0.3, 2.5))
            g = random_lottery_act(rng)
            f = random_act(rng)
            t = rng.uniform(0.1, 5.0)
            lhs, rhs = independence_witness(rate, t, g, f)
            assert lhs.distance(rhs) <= 1e-12


class TestAAValue:
    def test_constant_act(self):
        m = model_for()
        assert aa_value(m, GridAct.constant(STATES, "b")) == pytest.approx(1.0, abs=1e-15)

    def test_bet_expectation(self):
        m = model_for(probs=(0.25, 0.35, 0.4))
        bet = GridAct.bet(STATES, {"s0", "s2"}, "b", "a")
        assert aa_value(m, bet) == pytest.approx(0.65, abs=1e-12)

    def test_rejects_act_on_other_states(self):
        # Valuing only the act's own states would give 0.5 here, with no error.
        m = DSEUModel(
            ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), Beliefs({"a": 0.5, "b": 0.5})
        )
        with pytest.raises(KeyError, match=r"missing \['b'\]"):
            aa_value(m, GridAct.constant(("a",), "x"))
        with pytest.raises(KeyError, match=r"extra \['c'\]"):
            aa_value(m, GridAct.constant(("a", "b", "c"), "x"))

    def test_matches_act_value_on_random_acts(self):
        rng = random.Random(68)
        for _ in range(300):
            m = model_for(rate=rng.uniform(0.3, 2.5))
            act = random_act(rng)
            assert aa_value(m, act) == pytest.approx(m.act_value(act), abs=1e-12)


class TestContinuityWitness:
    def test_reduction_matches_two_point_mixture(self):
        rng = random.Random(69)
        m = model_for()
        for _ in range(50):
            act = random_act(rng)
            te = time_equivalent_act(m, act, "b", "a")
            reduced, mixed = continuity_witness(m, act, "b", "a", te)
            assert reduced.distance(mixed) <= 1e-12
