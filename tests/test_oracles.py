"""Comparison oracles: expected-utility, Choquet-capacity, and wrappers."""

import copy
import dataclasses
import itertools
import math
import pickle
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.acts import GridAct, StepProfile
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import ExpMeasure
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    Preference,
    SEUOracle,
    WidenedOracle,
    choquet_value,
    subsets,
)

import choquet_reference
from capacity_reference import ReferenceCapacity
from left_sum import left_sum

STATES = ("s0", "s1", "s2")
UTIL = {"w": 1.0, "m": 0.4, "l": 0.0}


def base_model(probs=(0.5, 0.3, 0.2), rate=1.0) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(rate), UtilityModel(dict(UTIL)), Beliefs(dict(zip(STATES, probs)))
    )


def random_act(rng, states=STATES) -> GridAct:
    def profile():
        n = rng.randint(1, 5)
        cuts = sorted(rng.uniform(0.0, 6.0) for _ in range(n - 1))
        return StepProfile.from_breakpoints(cuts, [rng.choice(list(UTIL)) for _ in range(n)])

    return GridAct({s: profile() for s in states})


class TestSEUOracle:
    def test_reflexive_indifference(self):
        oracle = SEUOracle(base_model())
        rng = random.Random(31)
        for _ in range(20):
            f = random_act(rng)
            assert oracle.compare(f, f) is Preference.INDIFFERENT

    def test_bets_ranked_by_event_probability(self):
        oracle = SEUOracle(base_model(probs=(0.5, 0.3, 0.2)))
        larger = GridAct.bet(STATES, {"s0"}, "w", "l")
        smaller = GridAct.bet(STATES, {"s2"}, "w", "l")
        assert oracle.compare(larger, smaller) is Preference.STRICTLY_PREFERS_FIRST

    def test_antisymmetry_and_value_sign_on_random_pairs(self):
        model = base_model()
        oracle = SEUOracle(model)
        rng = random.Random(32)
        for _ in range(300):
            f, g = random_act(rng), random_act(rng)
            answer = oracle.compare(f, g)
            assert oracle.compare(g, f) is answer.flipped
            diff = model.act_value(f) - model.act_value(g)
            if answer is Preference.STRICTLY_PREFERS_FIRST:
                assert diff > 0
            elif answer is Preference.STRICTLY_PREFERS_SECOND:
                assert diff < 0


class TestCapacity:
    def test_validation(self):
        with pytest.raises(ValueError):
            Capacity(("a", "b"), {frozenset(): 0.1, frozenset({"a"}): 0.5,
                                  frozenset({"b"}): 0.5, frozenset({"a", "b"}): 1.0})
        with pytest.raises(ValueError):  # not monotone
            Capacity(("a", "b"), {frozenset(): 0.0, frozenset({"a"}): 0.9,
                                  frozenset({"b"}): 0.5, frozenset({"a", "b"}): 0.8})
        with pytest.raises(ValueError):  # missing subsets
            Capacity(("a", "b"), {frozenset(): 0.0, frozenset({"a", "b"}): 1.0,
                                  frozenset({"a"}): 0.4})

    def test_additive_matches_beliefs(self):
        beliefs = Beliefs(dict(zip(STATES, (0.5, 0.3, 0.2))))
        cap = Capacity.additive(beliefs)
        assert cap({"s0", "s2"}) == pytest.approx(0.7, abs=1e-15)

    def test_epsilon_contamination(self):
        beliefs = Beliefs({"a": 0.5, "b": 0.5})
        cap = Capacity.epsilon_contamination(beliefs, 0.1)
        assert cap({"a"}) == pytest.approx(0.45, abs=1e-15)
        assert cap({"a", "b"}) == 1.0

    @given(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=7),
        st.floats(0.0, 1.0),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_weights_sum_beliefs_in_state_order(self, raw, epsilon, rng):
        labels = [f"s{i}" for i in range(len(raw))]
        rng.shuffle(labels)
        total = sum(raw)
        beliefs = Beliefs({s: w / total for s, w in zip(labels, raw)})
        states = beliefs.states
        want = {}
        for r in range(len(states) + 1):
            for c in itertools.combinations(states, r):
                want[frozenset(c)] = left_sum(beliefs(s) for s in c)
        want[frozenset(states)] = 1.0
        assert Capacity.additive(beliefs).weights == want
        shrunk = {c: (1.0 - epsilon) * v for c, v in want.items()}
        shrunk[frozenset(states)] = 1.0
        assert Capacity.epsilon_contamination(beliefs, epsilon).weights == shrunk

    def test_repr_lists_subsets_in_state_order(self):
        cap = Capacity.additive(Beliefs({"b": 0.25, "a": 0.75}))
        reordered = Capacity(cap.states, dict(reversed(list(cap.weights.items()))))
        assert reordered == cap
        assert repr(reordered) == repr(cap) == (
            "Capacity(states=('b', 'a'), "
            "weights={(): 0.0, ('b',): 0.25, ('a',): 0.75, ('b', 'a'): 1.0})"
        )


def _hex(v):
    return v.hex() if isinstance(v, float) else repr(v)


def capacity_outcome(cls, states, weights):
    """Everything a capacity keeps, floats as hex, or its exception's type and message."""
    try:
        cap = cls(states, weights)
    except (ValueError, TypeError, KeyError) as err:
        return type(err).__name__, str(err)
    return (
        [(c, _hex(v)) for c, v in cap.weights.items()],
        cap._full,
        list(map(_hex, cap._by_mask)),
        list(map(_hex, cap._steps)),
        repr(cap),
    )


@st.composite
def capacity_specs(draw):
    """States (labels out of sorted order, sometimes one repeated) and weights.

    The weights are a monotone function of additive beliefs, or uniform
    draws; some keys go missing, the empty and full weights sometimes move,
    and one weight is sometimes raised, lowered or nudged by about 1e-12.
    Their order is shuffled.
    """
    n = draw(st.integers(1, 8))
    states = [f"s{n - i}" for i in range(n)]
    if draw(st.integers(0, 9)) == 0:
        states.insert(draw(st.integers(0, n)), draw(st.sampled_from(states)))
    states = tuple(states)
    distinct = list(dict.fromkeys(states))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(distinct), max_size=len(distinct)))
    probs = dict(zip(distinct, (w / sum(raw) for w in raw)))
    keys = list(dict.fromkeys(subsets(states)))
    if draw(st.booleans()):
        power = draw(st.sampled_from((1.0, 0.5, 2.0, 3.0)))
        shrink = draw(st.floats(0.0, 1.0))
        weights = {c: shrink * sum(probs[s] for s in distinct if s in c) ** power for c in keys}
    else:
        weights = {c: draw(st.floats(-0.5, 1.5)) for c in keys}
        weights[frozenset()] = 0.0
    weights[frozenset(states)] = 1.0
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.sampled_from(keys))
        weights[c] = draw(
            st.sampled_from((0.0, 1.0, 1.0 + 1e-12, 1.0 + 3e-12, -1e-300, 0.5))
            | st.floats(-1e-12, 1e-12).map(lambda d, v=weights[c]: v + d)
        )
    for c in draw(st.lists(st.sampled_from(keys), max_size=3)):
        weights.pop(c, None)
    order = draw(st.permutations(list(weights)))
    return states, {c: weights[c] for c in order}


class TestCapacityStates:
    @pytest.mark.parametrize(
        "weights", [{}, {frozenset(): 0.0, frozenset({"a"}): 1.0}], ids=["none", "complete"]
    )
    def test_a_repeated_state_is_rejected(self, weights):
        with pytest.raises(ValueError, match=r"^capacity lists state 'a' twice in \['a', 'a'\]$"):
            Capacity(("a", "a"), weights)

    def test_the_first_state_listed_again_is_named(self):
        states = ("b", "a", "c", "a", "b")
        with pytest.raises(ValueError, match="^capacity lists state 'a' twice in "):
            Capacity(states, {c: float(len(c) == 3) for c in subsets(states)})

    def test_the_first_missing_subset_in_subset_order_is_named(self):
        # It used to be the first one in set iteration order, which the hash seed picks.
        with pytest.raises(ValueError, match=r"^capacity misses 13 subsets, e\.g\. \['b'\]$"):
            Capacity(("a", "b", "c", "d"), {frozenset({"a"}): 0.3})

    def test_an_incomplete_capacity_on_many_states_is_rejected_at_once(self):
        # It used to build all 2^20 subsets first: seconds and hundreds of MB.
        states = tuple(f"s{i:02d}" for i in range(20))
        weights = {frozenset({"s00"}): 0.1, frozenset({"s01"}): 0.2}
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^capacity misses 1048572 subsets, e\.g\. \['s02'\]$"):
            Capacity(states, weights)
        assert time.perf_counter() - start < 1.0


class TestCapacityMasks:
    """The mask validation against the frozenset one it replaced."""

    @pytest.mark.identity
    @given(capacity_specs())
    @settings(deadline=None)
    def test_builds_and_rejects_as_the_frozenset_reference(self, spec):
        states, weights = spec
        got = capacity_outcome(Capacity, states, weights)
        if len(set(states)) < len(states):
            # The reference builds on a repeated state, which now raises first.
            assert got[0] == "ValueError" and " twice in " in got[1]
        else:
            assert got == capacity_outcome(ReferenceCapacity, states, weights)

    @pytest.mark.identity
    @given(
        st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
        st.floats(0.0, 1.0) | st.sampled_from((0.0, 1.0)),
        st.randoms(use_true_random=False),
    )
    @settings(deadline=None)
    def test_epsilon_contamination_equals_the_reference(self, raw, epsilon, rng):
        labels = [f"s{i}" for i in range(len(raw))]
        rng.shuffle(labels)
        beliefs = Beliefs({s: w / sum(raw) for s, w in zip(labels, raw)})
        got = Capacity.epsilon_contamination(beliefs, epsilon)
        want = ReferenceCapacity.epsilon_contamination(beliefs, epsilon)
        assert type(got) is Capacity
        assert capacity_outcome(Capacity, got.states, got.weights) == capacity_outcome(
            ReferenceCapacity, want.states, want.weights
        )
        assert [(c, v.hex()) for c, v in got.weights.items()] == [
            (c, v.hex()) for c, v in want.weights.items()
        ]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_each_single_monotonicity_break_raises_as_the_reference(self, n):
        states = tuple(f"s{n - i}" for i in range(n))
        additive = Capacity.additive(Beliefs(dict.fromkeys(states, 1 / n))).weights
        for c in additive:
            for s in states:
                if s in c:
                    continue
                weights = dict(additive)
                if len(c) + 1 < n:
                    weights[c | {s}] = weights[c] - 0.01
                else:
                    weights[c] = 1.01
                got = capacity_outcome(Capacity, states, weights)
                assert got[0] == "ValueError"
                assert got == capacity_outcome(ReferenceCapacity, states, weights)

    @pytest.mark.parametrize("where", ["singleton", "pair", "full"])
    def test_nan_weight_is_rejected_naming_the_subset(self, where):
        states = ("s2", "s0", "s1")
        weights = dict(Capacity.additive(Beliefs(dict.fromkeys(states, 1 / 3))).weights)
        subset = {"singleton": ("s0",), "pair": ("s2", "s1"), "full": states}[where]
        weights[frozenset(subset)] = math.nan
        with pytest.raises(ValueError, match=re.escape(f"capacity of {list(subset)} is NaN")):
            Capacity(states, weights)

    def test_nan_full_weight_no_longer_makes_both_sides_second(self):
        # Accepted before: the Choquet oracle then preferred the second act
        # of compare(high, low) and of compare(low, high).
        weights = {frozenset(): 0.0, frozenset({"a"}): 0.4, frozenset({"b"}): 0.6}
        weights[frozenset({"a", "b"})] = math.nan
        assert capacity_outcome(ReferenceCapacity, ("a", "b"), weights)[0] != "ValueError"
        with pytest.raises(ValueError, match=re.escape("capacity of ['a', 'b'] is NaN")):
            Capacity(("a", "b"), weights)

    def test_empty_nan_weight_keeps_its_old_error(self):
        weights = {frozenset(): math.nan, frozenset({"a"}): 1.0}
        with pytest.raises(ValueError, match="^capacity of the empty set must be 0$"):
            Capacity(("a",), weights)

    def test_weight_on_a_state_outside_is_rejected_in_state_order(self):
        states = ("s1", "s0")
        weights = dict(Capacity.additive(Beliefs({"s1": 0.5, "s0": 0.5})).weights)
        weights[frozenset({"x", "s0"})] = 1.0
        # The frozenset validation raised a bare KeyError, in hash order.
        with pytest.raises(KeyError):
            ReferenceCapacity(states, weights)
        with pytest.raises(
            ValueError,
            match=re.escape("capacity weighs ['s0', 'x'], with states outside ['s1', 's0']"),
        ):
            Capacity(states, weights)

    def test_weight_on_a_state_outside_no_longer_overwrites_the_empty_set(self):
        weights = {frozenset(): 0.0, frozenset({"a"}): 1.0, frozenset({"z"}): 0.5}
        weights[frozenset({"a", "z"})] = 1.0
        # Every union was weighted, so the frozenset validation accepted it
        # and wrote the weight of {"z"} into the empty set's slot.
        assert ReferenceCapacity(("a",), weights)._by_mask == [0.5, 1.0]
        with pytest.raises(ValueError, match=re.escape("capacity weighs ['z'], with states outside ['a']")):
            Capacity(("a",), weights)

    def test_a_key_that_is_not_a_frozenset_is_a_type_error(self):
        weights = dict(Capacity.additive(Beliefs({"a": 0.5, "b": 0.5})).weights)
        weights[("a",)] = 0.5
        with pytest.raises(TypeError, match="frozensets"):
            Capacity(("a", "b"), weights)


class TestChoquetOracle:
    def test_deterministic_acts_ranked_like_seu(self):
        model = base_model()
        cap = Capacity.epsilon_contamination(model.beliefs, 0.3)
        deviant = ChoquetOracle(model.discount, model.utility, cap)
        reference = SEUOracle(model)
        rng = random.Random(33)
        for _ in range(100):
            f = GridAct.deterministic(STATES, random_act(rng).row("s0"))
            g = GridAct.deterministic(STATES, random_act(rng).row("s1"))
            assert deviant.compare(f, g) is reference.compare(f, g)

    def test_ellsberg_two_urn_pattern(self):
        # Ambiguous urn: capacity 0.45 on each color. The deterministic
        # half-life stream (the unambiguous 0.5 bet) beats both color bets.
        states = ("red", "black")
        util = UtilityModel({"w": 1.0, "l": 0.0})
        rate = ExpMeasure(1.0)
        cap = Capacity(
            states,
            {
                frozenset(): 0.0,
                frozenset({"red"}): 0.45,
                frozenset({"black"}): 0.45,
                frozenset(states): 1.0,
            },
        )
        deviant = ChoquetOracle(rate, util, cap)
        stream = GridAct.deterministic(
            states, StepProfile.before_after("w", rate.half_life, "l")
        )
        for color in states:
            bet = GridAct.bet(states, {color}, "w", "l")
            assert deviant.value(bet) == pytest.approx(0.45, abs=1e-12)
            assert deviant.compare(stream, bet) is Preference.STRICTLY_PREFERS_FIRST
        assert deviant.value(stream) == pytest.approx(0.5, abs=1e-12)

    def test_additive_capacity_agrees_with_seu(self):
        model = base_model()
        additive = ChoquetOracle(
            model.discount, model.utility, Capacity.additive(model.beliefs)
        )
        reference = SEUOracle(model)
        rng = random.Random(34)
        for _ in range(500):
            f, g = random_act(rng), random_act(rng)
            assert additive.compare(f, g) is reference.compare(f, g)

    @given(
        n=st.integers(1, 6),
        data=st.data(),
        rng=st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_value_equals_the_frozenset_telescoping_sum(self, n, data, rng):
        labels = [f"s{i}" for i in range(n)]
        rng.shuffle(labels)
        states = tuple(labels)
        # A random belief function: nonnegative masses on the nonempty
        # subsets, each event weighing the masses of its subsets.
        events = [c for r in range(n + 1) for c in itertools.combinations(states, r)]
        masses = {c: 0.1 + rng.random() for c in events[1:]}
        total = sum(masses.values())
        weights = {
            frozenset(c): sum(m for b, m in masses.items() if set(b) <= set(c)) / total
            for c in events
        }
        weights[frozenset(states)] = 1.0
        cap = Capacity(states, weights)
        # Few distinct values, so ties are common.
        levels = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=3))
        rows = {s: rng.choice(levels) for s in states}
        want, prev, top = 0.0, 0.0, set()
        for s in sorted(states, key=lambda s: (-rows[s], s)):
            top.add(s)
            nu = cap.weights[frozenset(top)]
            want += (nu - prev) * rows[s]
            prev = nu
        assert choquet_value(cap, rows) == want

    def test_comonotonic_additivity(self):
        # Rows ordered the same way across two acts: the Choquet value of a
        # statewise mixture telescopes additively.
        states = ("a", "b")
        util = UtilityModel({"w": 1.0, "l": 0.0})
        rate = ExpMeasure(1.0)
        cap = Capacity(
            states,
            {
                frozenset(): 0.0,
                frozenset({"a"}): 0.7,
                frozenset({"b"}): 0.1,
                frozenset(states): 1.0,
            },
        )
        # comonotone pairs: state "a" at least as good in both
        rows_f = {"a": 0.9, "b": 0.3}
        rows_g = {"a": 0.5, "b": 0.2}
        combined = {s: rows_f[s] + rows_g[s] for s in states}
        assert choquet_value(cap, combined) == pytest.approx(
            choquet_value(cap, rows_f) + choquet_value(cap, rows_g), abs=1e-12
        )
        # a non-comonotone pair breaks additivity
        rows_h = {"a": 0.1, "b": 0.8}
        mixed = {s: rows_f[s] + rows_h[s] for s in states}
        assert abs(
            choquet_value(cap, mixed)
            - choquet_value(cap, rows_f)
            - choquet_value(cap, rows_h)
        ) > 1e-6


ORDER_LABELS = ("s0", "s1", "s2", "s10", "b", "a", "Z")
ORDER_UTIL = {"w": 1.0, "m": 0.4, "l": 0.0, "z": -0.0, "n": -0.5}


@st.composite
def order_capacities(draw):
    """A capacity on labels whose sorted order is not the state order.

    It is an epsilon-contaminated or a squared additive capacity, its
    beliefs sometimes with a null state.
    """
    labels = draw(st.lists(st.sampled_from(ORDER_LABELS), min_size=1, max_size=7, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(labels), max_size=len(labels)))
    if len(labels) > 1 and draw(st.booleans()):
        raw[draw(st.integers(0, len(labels) - 1))] = 0.0
    beliefs = Beliefs({s: w / sum(raw) for s, w in zip(labels, raw)})
    if draw(st.booleans()):
        return Capacity.epsilon_contamination(beliefs, draw(st.floats(0.0, 1.0)))
    additive = Capacity.additive(beliefs)
    return Capacity(additive.states, {c: p * p for c, p in additive.weights.items()})


#: Row values: signed zeros, a few round levels and any other float but NaN.
ORDER_VALUES = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5)) | st.floats(allow_nan=False)


class TestChoquetOrder:
    """The list integral, sorted stably from the label order, against the lambda-key sort."""

    @pytest.mark.identity
    @given(order_capacities(), st.data())
    @settings(deadline=None)
    def test_integral_equals_the_lambda_key_sort(self, capacity, data):
        # At most three levels, so ties are common.
        levels = data.draw(st.lists(ORDER_VALUES, min_size=1, max_size=3))
        states = data.draw(st.permutations(capacity.states))
        rows = {s: data.draw(st.sampled_from(levels)) for s in states}
        got = choquet_value(capacity, rows)
        assert got.hex() == choquet_reference.choquet_value(capacity, rows).hex()
        # The frozenset reference keeps the same label order.
        reference = ReferenceCapacity(capacity.states, capacity.weights)
        assert reference._label_order == capacity._label_order
        assert choquet_value(reference, rows).hex() == got.hex()

    @pytest.mark.identity
    @given(order_capacities(), st.data())
    @settings(deadline=None)
    def test_multi_row_value_equals_the_per_state_dict(self, capacity, data):
        rate = ExpMeasure(data.draw(st.floats(0.1, 3.0)))
        oracle = ChoquetOracle(rate, UtilityModel(dict(ORDER_UTIL)), capacity)
        outcomes = st.sampled_from(tuple(ORDER_UTIL))
        pool = []
        for _ in range(data.draw(st.integers(1, 3))):
            cuts = sorted(set(data.draw(st.lists(st.floats(0.01, 5.0), max_size=3))))
            outs = data.draw(st.lists(outcomes, min_size=len(cuts) + 1, max_size=len(cuts) + 1))
            pool.append(StepProfile.from_breakpoints(cuts, outs))
        # The act lists the states in its own order; its rows are shared
        # objects or equal copies.
        rows = {}
        for s in data.draw(st.permutations(capacity.states)):
            p = data.draw(st.sampled_from(pool))
            rows[s] = StepProfile(p.cuts, p.outs) if data.draw(st.booleans()) else p
        f = GridAct(rows)
        assert oracle.value(f).hex() == choquet_reference.multi_row_value(oracle, f).hex()

    @pytest.mark.parametrize("act_states", [("a", "b", "c"), ("c", "b", "a"), ("b", "c", "a")])
    def test_unknown_outcomes_raise_at_the_first_bad_row_in_act_order(self, act_states):
        capacity = Capacity.additive(Beliefs({"a": 0.2, "b": 0.3, "c": 0.5}))
        oracle = ChoquetOracle(ExpMeasure(1.0), UtilityModel(dict(UTIL)), capacity)
        row = dict(zip(("a", "b", "c"), ("w", "bad_b", "bad_c")))
        f = GridAct({s: StepProfile.constant(row[s]) for s in act_states})
        with pytest.raises(KeyError) as want:
            choquet_reference.multi_row_value(oracle, f)
        with pytest.raises(KeyError) as got:
            oracle.value(f)
        assert str(got.value) == str(want.value)
        assert repr(row[next(s for s in act_states if s != "a")]) in str(got.value)

    def test_a_missing_state_raises_as_the_lambda_key_sort(self):
        capacity = Capacity.additive(Beliefs({"b": 0.5, "a": 0.25, "c": 0.25}))
        rows = {"b": 1.0}
        with pytest.raises(KeyError) as want:
            choquet_reference.choquet_value(capacity, rows)
        with pytest.raises(KeyError) as got:
            choquet_value(capacity, rows)
        assert got.value.args == want.value.args == ("a",)


class TestWrappers:
    def test_noisy_identity_at_zero_inflation(self):
        oracle = SEUOracle(base_model())
        wrapped = WidenedOracle(oracle, 0.0)
        rng = random.Random(35)
        for _ in range(100):
            f, g = random_act(rng), random_act(rng)
            assert wrapped.compare(f, g) is oracle.compare(f, g)

    def test_wider_band_merges_near_ties(self):
        model = base_model()
        oracle = SEUOracle(model)
        wide = WidenedOracle(oracle, 10.0)
        rng = random.Random(36)
        f, g = random_act(rng), random_act(rng)
        assert wide.compare(f, g) is Preference.INDIFFERENT

    def test_bisection_converges_within_widened_band(self):
        from dseu.equivalents import time_equivalent_bisect

        model = base_model(probs=(0.3, 0.5, 0.2))
        band = 1e-4
        oracle = WidenedOracle(SEUOracle(model), band)
        bet = GridAct.bet(STATES, {"s0"}, "w", "l")
        te = time_equivalent_bisect(oracle, bet, "w", "l", tol=1e-9, rate=model.discount)
        # the band blurs the value comparison; the time error stays of band size
        recovered = model.profile_value(te.profile("w", "l"))
        assert abs(recovered - model.act_value(bet)) <= 2 * band

    def test_counting_oracle_counts(self):
        oracle = CountingOracle(SEUOracle(base_model()), keep_log=True)
        rng = random.Random(37)
        f, g = random_act(rng), random_act(rng)
        oracle.compare(f, g)
        oracle.compare(g, f)
        assert oracle.count == 2
        assert len(oracle.log) == 2

    def test_counted_widened_oracle_answers_like_widened_oracle(self):
        oracle = SEUOracle(base_model())
        reference = WidenedOracle(oracle, 0.01)
        counted = CountingOracle(WidenedOracle(oracle, 0.01))
        rng = random.Random(38)
        for _ in range(50):
            f, g = random_act(rng), random_act(rng)
            assert counted.compare(f, g) is reference.compare(f, g)
        assert counted.count == 50
        assert counted.band == reference.band == 0.01

    def test_widened_oracle_is_the_oracle_with_the_summed_band(self):
        oracle = SEUOracle(base_model(), band=0.25)
        wide = WidenedOracle(oracle, 0.5)
        assert type(wide) is SEUOracle and wide == SEUOracle(oracle.model, band=0.75)
        assert oracle.band == 0.25

    def test_widening_a_counting_oracle_raises(self):
        # A counted oracle has no band of its own: count the widened oracle instead.
        with pytest.raises(TypeError):
            WidenedOracle(CountingOracle(SEUOracle(base_model())), 0.01)


def functional_value(act: GridAct) -> float:
    """Module-level, so a functional oracle built on it pickles."""
    return base_model().act_value(act)


def base_oracles():
    model = base_model()
    cap = Capacity.epsilon_contamination(model.beliefs, 0.2)
    return {
        "seu": SEUOracle(model, band=1e-6),
        "choquet": ChoquetOracle(model.discount, model.utility, cap),
        "functional": FunctionalOracle(
            functional_value, 1e-6, STATES, model.outcomes, model.discount
        ),
    }


WRAPS = {
    "bare": lambda o: o,
    "widened": lambda o: WidenedOracle(o, 0.0),
    "counting": CountingOracle,
}


class TestOracleInterface:
    def test_functional_oracle_rejects_negative_band(self):
        with pytest.raises(ValueError, match="indifference band"):
            FunctionalOracle(functional_value, band=-1.0)

    @pytest.mark.parametrize("kind", ["seu", "choquet", "functional"])
    def test_nan_band_rejected(self, kind):
        # A NaN band is never within reach of abs(diff) <= band: no ties at all.
        oracle = base_oracles()[kind]
        with pytest.raises(ValueError, match="indifference band must be >= 0, got nan"):
            dataclasses.replace(oracle, band=math.nan)

    @pytest.mark.parametrize(
        "fn",
        [lambda f: math.nan, lambda f: math.inf, lambda f: -math.inf],
        ids=["nan", "inf-minus-inf", "minus-inf-plus-inf"],
    )
    @pytest.mark.parametrize("band", [0.0, 1.0, math.inf])
    def test_a_nan_value_difference_raises_both_ways(self, fn, band):
        oracle = FunctionalOracle(fn, band)
        f, g = GridAct.constant(STATES, "w"), GridAct.constant(STATES, "l")
        for first, second in ((f, g), (g, f), (f, f)):
            with pytest.raises(ValueError, match="^the value difference of the two acts is nan$"):
                oracle.compare(first, second)

    def test_only_a_nan_difference_raises(self):
        values = {"w": math.inf, "m": 0.0, "l": -math.inf}
        oracle = FunctionalOracle(lambda f: values[f.common_row.outs[0]])
        w, m, l = (GridAct.constant(STATES, x) for x in "wml")
        assert oracle.compare(w, m) is Preference.STRICTLY_PREFERS_FIRST
        assert oracle.compare(l, m) is Preference.STRICTLY_PREFERS_SECOND
        assert oracle.compare(w, l) is Preference.STRICTLY_PREFERS_FIRST
        assert FunctionalOracle(oracle.fn, math.inf).compare(w, l) is Preference.INDIFFERENT

    @pytest.mark.parametrize("extra", [-1e-9, math.nan])
    def test_widened_oracle_rejects_negative_and_nan_inflation(self, extra):
        with pytest.raises(ValueError, match=f"band inflation must be >= 0, got {extra}"):
            WidenedOracle(SEUOracle(base_model()), extra)

    @pytest.mark.parametrize("epsilon", [-0.1, 1.5, math.nan])
    def test_contamination_outside_the_unit_interval_is_rejected(self, epsilon):
        with pytest.raises(ValueError, match=f"^contamination must lie in \\[0, 1\\], got {epsilon}$"):
            Capacity.epsilon_contamination(Beliefs({"a": 0.5, "b": 0.5}), epsilon)

    def test_choquet_oracle_checks_act_states(self):
        oracle = base_oracles()["choquet"]
        with pytest.raises(KeyError, match=r"missing \['s1', 's2'\], extra \[\]"):
            oracle.value(GridAct.constant(("s0",), "w"))
        with pytest.raises(KeyError, match=r"missing \[\], extra \['s3'\]"):
            oracle.value(GridAct.stochastic({s: "w" for s in (*STATES, "s3")}))

    def test_functional_oracle_checks_act_states_when_it_has_states(self):
        oracle = FunctionalOracle(lambda f: 0.5, states=("a", "b"))
        with pytest.raises(KeyError, match=r"missing \['b'\], extra \[\]"):
            oracle.value(GridAct.constant(("a",), "w"))
        with pytest.raises(KeyError, match=r"missing \[\], extra \['c'\]"):
            oracle.compare(GridAct.constant(("a", "b", "c"), "w"), GridAct.constant(("a", "b"), "w"))
        assert oracle.value(GridAct.constant(("a", "b"), "w")) == 0.5
        unchecked = FunctionalOracle(lambda f: 0.5)
        assert unchecked.value(GridAct.constant(("a",), "w")) == 0.5

    @pytest.mark.parametrize("wrap", WRAPS)
    @pytest.mark.parametrize("kind", ["seu", "choquet", "functional"])
    def test_every_oracle_answers_like_the_oracle_it_wraps(self, kind, wrap):
        inner = base_oracles()[kind]
        oracle = WRAPS[wrap](inner)
        for name in ("states", "outcomes", "band", "discount"):
            assert getattr(oracle, name) == getattr(inner, name)
        rng = random.Random(39)
        for _ in range(20):
            f, g = random_act(rng), random_act(rng)
            assert oracle.value(f) == inner.value(f)
            assert oracle.compare(f, g) is inner.compare(f, g)
        for twin in (
            copy.copy(oracle),
            copy.deepcopy(oracle),
            pickle.loads(pickle.dumps(oracle)),
        ):
            assert twin == oracle
            assert repr(twin) == repr(oracle)


# -- the memo policy: the two acts used most recently, the last one first -------


def ref_recall(memo, f, compute):
    for i, (act, v) in enumerate(memo):
        if act is f:
            memo.insert(0, memo.pop(i))
            return v
    v = compute(f)
    memo.insert(0, (f, v))
    if len(memo) > 2:
        memo.pop()
    return v


def memo_contents(memo):
    return [(id(act), v) for act, v in memo]


def memo_oracles():
    """The SEU and Choquet oracles, which share the memoised ``value``."""
    return {kind: base_oracles()[kind] for kind in ("seu", "choquet")}


class TestRecall:
    @pytest.mark.identity
    @pytest.mark.parametrize("kind", ["seu", "choquet"])
    @given(st.integers(1, 4), st.lists(st.integers(0, 3), max_size=40))
    @settings(deadline=None)
    def test_keeps_the_memo_the_enumerate_version_kept(self, kind, n_acts, picks):
        oracle = memo_oracles()[kind]
        acts = [GridAct.constant(STATES, "w") for _ in range(n_acts)]
        values = {id(a): float(k) for k, a in enumerate(acts)}
        computed, ref_computed = [], []

        def compute(f):
            computed.append(f)
            return values[id(f)]

        def ref_compute(f):
            ref_computed.append(f)
            return values[id(f)]

        # The valuation ``value`` calls on a miss, stubbed on this instance.
        object.__setattr__(oracle, "_value", compute)
        ref_memo = []
        for k in picks:
            f = acts[k % n_acts]
            assert oracle.value(f) == ref_recall(ref_memo, f, ref_compute)
            assert memo_contents(oracle._memo) == memo_contents(ref_memo)
            assert [id(a) for a in computed] == [id(a) for a in ref_computed]

    @pytest.mark.parametrize("kind", ["seu", "choquet"])
    def test_a_failed_valuation_leaves_the_memo_as_it_was(self, kind):
        oracle = memo_oracles()[kind]
        acts = [GridAct.constant(STATES, "w") for _ in range(3)]
        object.__setattr__(oracle, "_value", lambda f: 0.0)
        oracle.value(acts[0])
        object.__setattr__(oracle, "_value", lambda f: 1.0)
        oracle.value(acts[1])
        before = list(oracle._memo)

        def fail(f):
            raise KeyError("no")

        object.__setattr__(oracle, "_value", fail)
        with pytest.raises(KeyError):
            oracle.value(acts[2])
        assert memo_contents(oracle._memo) == memo_contents(before)

    def test_the_seu_oracle_values_through_its_models_bound_act_value(self):
        oracle = memo_oracles()["seu"]
        assert oracle._value.__self__ is oracle.model
        assert oracle._value.__func__ is DSEUModel.act_value
        widened = WidenedOracle(oracle, 0.1)
        assert widened._value.__self__ is widened.model
        rng = random.Random(40)
        for _ in range(20):
            f = random_act(rng)
            assert oracle.value(f) == oracle.model.act_value(f)
