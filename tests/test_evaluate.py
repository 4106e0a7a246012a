"""Model evaluation: closed form versus quadrature, integration orders, decomposition."""

import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.acts import Event, GridAct, StepProfile, splice_event, splice_time
from dseu.evaluate import (
    Beliefs,
    DSEUModel,
    UtilityModel,
    check_states,
    decomposition_check,
    profile_value,
)
from dseu.measure import INF, ExpMeasure, TimeSet

from left_sum import left_sum
from refinement import refine

STATES = ("s0", "s1", "s2", "s3")
UTIL = {"a": 0.0, "b": 1.0, "c": -0.5, "d": 2.25}


def model_for(rate: float, states=STATES, probs=None) -> DSEUModel:
    if probs is None:
        probs = [1.0 / len(states)] * len(states)
    return DSEUModel(
        ExpMeasure(rate),
        UtilityModel(dict(UTIL)),
        Beliefs(dict(zip(states, probs))),
    )


def random_profile(rng, outcomes=tuple(UTIL), max_pieces=8) -> StepProfile:
    n = rng.randint(1, max_pieces)
    cuts = sorted(rng.uniform(0.0, 8.0) for _ in range(n - 1))
    return StepProfile.from_breakpoints(cuts, [rng.choice(outcomes) for _ in range(n)])


def random_act(rng, states=STATES) -> GridAct:
    return GridAct({s: random_profile(rng, max_pieces=6) for s in states})


def random_beliefs(rng, states=STATES) -> list[float]:
    raw = [rng.uniform(0.05, 1.0) for _ in states]
    return [x / sum(raw) for x in raw]


def quad_profile_value(rate: float, profile: StepProfile, horizon=60.0, cells=1_000_000):
    """Midpoint quadrature of rate * exp(-rate t) * u(x(t)) on a truncated horizon.

    Cells are laid out piecewise so none straddles a jump of the step function.
    """
    total = 0.0
    for lo, hi, out in profile.segments():
        hi = min(hi, horizon)
        if lo >= hi:
            continue
        n = max(1, int(cells * (hi - lo) / horizon))
        ts = np.linspace(lo, hi, n + 1)
        mids = 0.5 * (ts[:-1] + ts[1:])
        total += float(np.sum(rate * np.exp(-rate * mids)) * (hi - lo) / n) * UTIL[out]
    return total


def ref_profile_value(discount, utility, profile):
    """profile_value as it was: one ``sf`` and one ``utility`` call per piece."""
    total = 0.0
    sf_lo = discount.sf(0.0)
    for t, out in zip((*profile.cuts, INF), profile.outs):
        sf_hi = discount.sf(t)
        total += (sf_lo - sf_hi) * utility(out)
        sf_lo = sf_hi
    return total


@st.composite
def valued_profiles(draw):
    """A rate and a profile with cuts near 0, in the bulk and past ``745 / rate``."""
    rate = draw(st.floats(1e-3, 50.0))
    tail = 745.2 / rate  # sf is 0.0 from here on
    points = draw(
        st.lists(
            st.floats(1e-300, 1e-3) | st.floats(1e-3, 10.0) | st.floats(0.9 * tail, 4.0 * tail),
            max_size=12,
            unique=True,
        )
    )
    n = len(points) + 1
    alphabet = (*UTIL, "nope") if draw(st.booleans()) else tuple(UTIL)
    outs = draw(st.lists(st.sampled_from(alphabet), min_size=n, max_size=n))
    return rate, StepProfile(tuple(sorted(points)), tuple(outs))


def value_or_error(fn, *args):
    try:
        return fn(*args).hex()
    except KeyError as err:
        return f"KeyError: {err}"


class TestProfileValue:
    def test_constant_is_utility(self):
        m = model_for(1.7)
        for out, u in UTIL.items():
            assert m.profile_value(StepProfile.constant(out)) == pytest.approx(u, abs=1e-15)

    def test_half_life_split(self):
        m = model_for(math.log(2.0))
        p = StepProfile.before_after("b", 1.0, "a")
        assert m.profile_value(p) == pytest.approx(0.5, abs=1e-15)

    def test_matches_quadrature_on_random_profiles(self):
        rng = random.Random(21)
        m = model_for(1.0)
        for _ in range(3):
            p = random_profile(rng)
            assert m.profile_value(p) == pytest.approx(
                quad_profile_value(1.0, p), abs=1e-6
            )

    def test_unknown_outcome_is_lookup_error(self):
        m = model_for(1.0)
        with pytest.raises(KeyError):
            m.profile_value(StepProfile.constant("nope"))

    @pytest.mark.identity
    @given(valued_profiles())
    @settings(deadline=None)
    def test_matches_the_per_piece_reference(self, case):
        rate, profile = case
        discount, utility = ExpMeasure(rate), UtilityModel(dict(UTIL))
        want = value_or_error(ref_profile_value, discount, utility, profile)
        assert value_or_error(profile_value, discount, utility, profile) == want
        if "nope" in profile.outs:
            assert want.startswith("KeyError: \"no utility for outcome 'nope'")


class TestActValue:
    def test_constant_act(self):
        m = model_for(0.9)
        assert m.act_value(GridAct.constant(STATES, "d")) == pytest.approx(2.25, abs=1e-15)

    def test_bet_is_two_outcome_expectation(self):
        probs = [0.1, 0.2, 0.3, 0.4]
        m = model_for(1.1, probs=probs)
        bet = GridAct.bet(STATES, {"s1", "s3"}, "b", "a")
        assert m.act_value(bet) == pytest.approx(0.6, abs=1e-12)

    def test_unknown_state_is_lookup_error(self):
        m = model_for(1.0)
        act = GridAct.constant(("other",), "a")
        with pytest.raises(KeyError):
            m.act_value(act)

    @pytest.mark.parametrize(
        "value",
        [DSEUModel.act_value, DSEUModel.act_value_dual, lambda m, f: m.prefix_value(f, 1.0)],
    )
    def test_act_on_a_sub_state_space_is_rejected(self, value):
        # Summing over the act's states alone would value this act at 0.5.
        m = DSEUModel(
            ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), Beliefs({"a": 0.5, "b": 0.5})
        )
        with pytest.raises(KeyError, match=r"missing \['b'\], extra \[\]"):
            value(m, GridAct.constant(("a",), "x"))
        with pytest.raises(KeyError, match=r"missing \[\], extra \['c'\]"):
            value(m, GridAct.constant(("a", "b", "c"), "x"))


class TestModelInputs:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: UtilityModel({}), "utility needs at least one outcome"),
            (lambda: UtilityModel({"x": math.inf, "y": 0.0}), "utility of 'x' must be finite, got inf"),
            (lambda: UtilityModel({"x": 1.0, "y": 1.0}), "utility must be nonconstant"),
            (lambda: Beliefs({}), "beliefs need at least one state"),
            (lambda: Beliefs({"a": -0.5, "b": 1.5}), "probability of state 'a' must be >= 0, got -0.5"),
            (lambda: Beliefs({"a": 0.5, "b": 0.4}), "state probabilities must sum to 1"),
        ],
        ids=["no-outcome", "infinite-utility", "constant-utility", "no-state", "negative", "sum"],
    )
    def test_malformed_model_part_is_rejected(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            build()

    def test_unknown_state_has_no_belief(self):
        with pytest.raises(KeyError, match="no probability for state 'z'"):
            Beliefs({"a": 1.0})("z")

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_negative_or_nan_prefix_end_is_rejected(self, t):
        with pytest.raises(ValueError, match=f"^prefix end must be >= 0, got {t!r}$"):
            model_for(1.0).prefix_value(GridAct.constant(STATES, "a"), t)


class TestIntegrationOrderDuality:
    def test_deterministic_act_reduces_to_profile_value(self):
        rng = random.Random(22)
        m = model_for(0.8)
        p = random_profile(rng)
        act = GridAct.deterministic(STATES, p)
        assert m.act_value_dual(act) == pytest.approx(m.profile_value(p), abs=1e-15)

    def test_stochastic_act(self):
        probs = [0.4, 0.1, 0.25, 0.25]
        m = model_for(2.0, probs=probs)
        act = GridAct.stochastic({"s0": "a", "s1": "b", "s2": "c", "s3": "d"})
        want = sum(p * UTIL[o] for p, o in zip(probs, ("a", "b", "c", "d")))
        assert m.act_value_dual(act) == pytest.approx(want, abs=1e-15)

    def test_orders_agree_on_random_acts(self):
        rng = random.Random(23)
        for _ in range(1000):
            m = model_for(rng.uniform(0.2, 3.0), probs=random_beliefs(rng))
            act = random_act(rng)
            assert m.act_value(act) == pytest.approx(
                m.act_value_dual(act), abs=1e-12
            )


# -- the refinement reference -------------------------------------------------
# act_value_dual and prefix_value as they were before the one-pass sweep: one
# refine cell, with a tuple of outcomes, per cell, and two exp calls per piece.


def ref_act_value_dual(model, act):
    check_states(model.states, act)
    weights = [model.beliefs(s) for s in act.states]
    total = 0.0
    sf_lo = model.discount.sf(0.0)
    for _, hi, outcomes, _ in refine(act.profiles.values()):
        sf_hi = model.discount.sf(hi)
        mean_u = left_sum(w * model.utility(x) for w, x in zip(weights, outcomes))
        total += (sf_lo - sf_hi) * mean_u
        sf_lo = sf_hi
    return total


def ref_prefix_value(model, act, t):
    total = 0.0
    for s in act.states:
        row = 0.0
        for lo, hi, out in act.row(s).segments():
            if lo >= t:
                break
            mass = model.discount.sf(lo) - model.discount.sf(min(hi, t))
            row += mass * model.utility(out)
        total += model.beliefs(s) * row
    return total


STATES_6 = ("s0", "s1", "s2", "s3", "s4", "s5")


@st.composite
def acts_with_shared_cuts(draw):
    """A model and an act on 1-6 states whose rows share cut times and row objects."""
    rate = draw(st.floats(0.2, 3.0))
    tail = 745.2 / rate  # sf is 0.0 from here on
    pool = draw(
        st.lists(st.floats(1e-3, 8.0) | st.floats(tail, 4.0 * tail), min_size=1, max_size=10)
    )
    states = STATES_6[: draw(st.integers(1, 6))]
    rows: dict[str, StepProfile] = {}
    for s in states:
        if rows and draw(st.booleans()):
            rows[s] = rows[draw(st.sampled_from(sorted(rows)))]
            continue
        cuts = sorted(set(draw(st.lists(st.sampled_from(pool), max_size=10))))
        n = len(cuts) + 1
        outs = draw(st.lists(st.sampled_from(tuple(UTIL)), min_size=n, max_size=n))
        rows[s] = StepProfile(tuple(cuts), tuple(outs))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(states), max_size=len(states)))
    model = DSEUModel(
        ExpMeasure(rate),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(states, raw)}),
    )
    return model, GridAct(rows), draw(st.sampled_from(pool) | st.floats(0.0, 10.0))


class TestOnePassSweeps:
    @pytest.mark.identity
    @given(acts_with_shared_cuts())
    @settings(deadline=None)
    def test_match_the_refinement_reference(self, case):
        model, act, t = case
        assert model.act_value_dual(act).hex() == ref_act_value_dual(model, act).hex()
        assert model.prefix_value(act, t).hex() == ref_prefix_value(model, act, t).hex()

    @pytest.mark.identity
    @given(acts_with_shared_cuts(), st.data())
    @settings(deadline=None)
    def test_prefix_value_of_an_unknown_outcome_raises_as_the_reference(self, case, data):
        model, act, t = case
        s = data.draw(st.sampled_from(act.states))
        row = act.row(s)
        outs = list(row.outs)
        outs[data.draw(st.integers(0, len(outs) - 1))] = "nope"
        act = GridAct({**act.profiles, s: StepProfile(row.cuts, tuple(outs))})
        want = value_or_error(ref_prefix_value, model, act, t)
        assert value_or_error(model.prefix_value, act, t) == want
        want = value_or_error(ref_act_value_dual, model, act)
        assert value_or_error(model.act_value_dual, act) == want


class TestDecomposition:
    def test_zero_offset(self):
        rng = random.Random(24)
        m = model_for(1.0)
        h, f = random_act(rng), random_act(rng)
        lhs, rhs = decomposition_check(m, h, 0.0, f)
        assert lhs == pytest.approx(m.act_value(f), abs=1e-15)
        assert rhs == pytest.approx(m.act_value(f), abs=1e-15)

    def test_constant_acts(self):
        m = model_for(1.3)
        c = GridAct.constant(STATES, "b")
        lhs, rhs = decomposition_check(m, c, 2.0, c)
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_identity_on_random_triples(self):
        rng = random.Random(25)
        for _ in range(1000):
            m = model_for(rng.uniform(0.2, 3.0), probs=random_beliefs(rng))
            h, f = random_act(rng), random_act(rng)
            t = rng.uniform(0.0, 5.0)
            lhs, rhs = decomposition_check(m, h, t, f)
            assert abs(lhs - rhs) <= 1e-12


class TestOrderProperties:
    def test_monotonicity_under_pointwise_domination(self):
        rng = random.Random(26)
        better = {"a": "b", "b": "d", "c": "a", "d": "d"}
        for _ in range(200):
            m = model_for(rng.uniform(0.3, 2.0), probs=random_beliefs(rng))
            g = random_act(rng)
            f = GridAct(
                {
                    s: StepProfile(
                        g.row(s).cuts, tuple(better[o] for o in g.row(s).outs)
                    ).normalized()
                    for s in STATES
                }
            )
            assert m.act_value(f) >= m.act_value(g) - 1e-12

    def test_stationarity_of_value_signs(self):
        rng = random.Random(27)
        for _ in range(200):
            m = model_for(rng.uniform(0.3, 2.0), probs=random_beliefs(rng))
            f, g, h = random_act(rng), random_act(rng), random_act(rng)
            t = rng.uniform(0.0, 4.0)
            base = m.act_value(f) - m.act_value(g)
            delayed = m.act_value(splice_time(h, t, f)) - m.act_value(splice_time(h, t, g))
            assert delayed == pytest.approx(m.discount.sf(t) * base, abs=1e-12)

    def test_affine_utility_invariance_of_order(self):
        rng = random.Random(28)
        scale, offset = 3.7, -1.25
        rescaled = UtilityModel({o: scale * u + offset for o, u in UTIL.items()})
        for _ in range(200):
            probs = random_beliefs(rng)
            rate = rng.uniform(0.3, 2.0)
            m1 = model_for(rate, probs=probs)
            m2 = DSEUModel(ExpMeasure(rate), rescaled, Beliefs(dict(zip(STATES, probs))))
            f, g = random_act(rng), random_act(rng)
            d1 = m1.act_value(f) - m1.act_value(g)
            d2 = m2.act_value(f) - m2.act_value(g)
            assert d2 == pytest.approx(scale * d1, abs=1e-10)

    def test_null_event_splices_never_move_value(self):
        rng = random.Random(29)
        m = model_for(1.0, probs=[0.5, 0.5, 0.0, 0.0])
        for _ in range(100):
            f, g = random_act(rng), random_act(rng)
            null_state = splice_event(g, Event(states=frozenset({"s2", "s3"}), times=None), f)
            assert m.act_value(null_state) == pytest.approx(m.act_value(f), abs=1e-12)
            null_time = splice_event(g, Event.on_times(TimeSet.empty()), f)
            assert m.act_value(null_time) == pytest.approx(m.act_value(f), abs=1e-12)
