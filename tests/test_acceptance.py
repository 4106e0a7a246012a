"""Acceptance suite: one test per criterion, each at its stated tolerance.

Every test prints a single ``[criterion NN] PASS`` line once its assertions
hold; a failing assertion aborts the test before the line is printed, so the
printed lines mirror the pass/fail state of the suite.
"""

import math
import random

from dseu.acts import GridAct, StepProfile
from dseu.aa import (
    aa_value,
    independence_witness,
    realize_lottery_act,
    reduce_profile_on,
    Lottery,
    LotteryAct,
)
from dseu.audit import (
    FAIL,
    PASS,
    check_dominance,
    check_monotone_continuity,
    check_stationarity,
    check_t_monotonicity,
    check_t_separability,
)
from dseu.bracketing import bracket_act, bracket_profile, independent_selection, utility_bins
from dseu.elicitation import elicit_measure, run_session, section2_demo
from dseu.equivalents import time_equivalent_act, time_equivalent_bisect
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel, decomposition_check
from dseu.measure import INF, ExpMeasure, TimeInterval, TimeSet
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    SEUOracle,
)
from dseu.sampling import ActSampler


def report(k: int, text: str) -> None:
    print(f"[criterion {k:02d}] PASS {text}")


def random_time_set(rng: random.Random, measure: ExpMeasure) -> TimeSet:
    n = rng.randint(0, 4)
    qs = sorted(rng.uniform(0.0, 0.995) for _ in range(2 * n))
    cuts = [measure.quantile(q) for q in qs]
    pairs = [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi]
    if pairs and rng.random() < 0.25:
        pairs[-1] = (pairs[-1][0], INF)
    return TimeSet.from_pairs(pairs)


def test_criterion_01_exponential_measure_suite():
    rng = random.Random(101)
    for _ in range(1000):
        m = ExpMeasure(rng.uniform(0.2, 3.0))
        a = random_time_set(rng, m)
        b = random_time_set(rng, m).intersect(a.complement())
        assert abs(m.mass(a.union(b)) - (m.mass(a) + m.mass(b))) <= 1e-12
    for _ in range(1000):
        m = ExpMeasure(rng.uniform(0.2, 3.0))
        a = random_time_set(rng, m)
        t = rng.uniform(0.0, 6.0)
        assert abs(m.mass(a.shift(t)) - m.sf(t) * m.mass(a)) <= 1e-12
    for _ in range(1000):
        m = ExpMeasure(rng.uniform(0.2, 3.0))
        p = rng.uniform(0.0, 1.0 - 1e-9)
        assert abs(m.cdf(m.quantile(p)) - p) <= 1e-12
    report(1, "measure additivity, shift identity, cdf/quantile round trips (1000 each, 1e-12)")


UTIL6 = {"o0": 0.0, "o1": 0.2, "o2": 0.45, "o3": 0.6, "o4": 0.85, "o5": 1.0}


def random_model(rng: random.Random, n_states: int | None = None) -> DSEUModel:
    n = n_states or rng.randint(1, 6)
    states = tuple(f"s{i}" for i in range(n))
    raw = [rng.uniform(0.05, 1.0) for _ in states]
    return DSEUModel(
        ExpMeasure(rng.uniform(0.3, 2.5)),
        UtilityModel(dict(UTIL6)),
        Beliefs({s: w / sum(raw) for s, w in zip(states, raw)}),
    )


def random_act_for(rng: random.Random, model: DSEUModel, outcomes=None, max_pieces=6) -> GridAct:
    outcomes = outcomes or tuple(UTIL6)
    sampler = ActSampler(model.discount, model.states, tuple(outcomes), max_pieces)
    return sampler.act(rng)


def test_criterion_02_fubini_duality():
    rng = random.Random(102)
    for _ in range(1000):
        model = random_model(rng)
        act = random_act_for(rng, model)
        assert abs(model.act_value(act) - model.act_value_dual(act)) <= 1e-12
    report(2, "state-first equals time-first on 1000 random grid acts (1e-12)")


def test_criterion_03_decomposition_identity():
    rng = random.Random(103)
    for _ in range(1000):
        model = random_model(rng)
        h = random_act_for(rng, model)
        f = random_act_for(rng, model)
        t = model.discount.quantile(rng.uniform(0.0, 0.9))
        lhs, rhs = decomposition_check(model, h, t, f)
        assert abs(lhs - rhs) <= 1e-12
    report(3, "splice decomposition residual <= 1e-12 on 1000 random triples")


def test_criterion_04_time_equivalent_roundtrip_and_bisection():
    rng = random.Random(104)
    inner = ("o0", "o1", "o2", "o3", "o4")  # utilities within [0, 0.85]
    pair_top, pair_bottom = "o5", "o0"
    for _ in range(200):
        model = random_model(rng)
        act = random_act_for(rng, model, outcomes=inner)
        closed = time_equivalent_act(model, act, pair_top, pair_bottom)
        stream = closed.profile(pair_top, pair_bottom)
        assert abs(model.profile_value(stream) - model.act_value(act)) <= 1e-12
        oracle = CountingOracle(SEUOracle(model))
        bisected = time_equivalent_bisect(
            oracle, act, pair_top, pair_bottom, tol=1e-9, rate=model.discount
        )
        assert oracle.count <= 64
        assert not bisected.is_whole_horizon
        assert abs(bisected.t - closed.t) <= 1e-9
    report(4, "closed-form round trip (1e-12) and bisection agreement (1e-9, <=64 queries) on 200 acts")


def test_criterion_05_elicitation_roundtrip():
    rng = random.Random(105)
    for _ in range(50):
        n = rng.randint(1, 6)
        states = tuple(f"s{i}" for i in range(n))
        raw = [rng.uniform(0.05, 1.0) for _ in states]
        probs = {s: w / sum(raw) for s, w in zip(states, raw)}
        lam = rng.uniform(0.3, 2.5)
        model = DSEUModel(
            ExpMeasure(lam), UtilityModel({"x": 1.0, "y": 0.0}), Beliefs(probs)
        )
        oracle = SEUOracle(model)
        session = run_session(oracle, "x", "y", tol=1e-9)
        assert abs(session.lambda_hat - lam) / lam <= 1e-6
        for subset, mu in session.mu_hat.items():
            want = sum(probs[s] for s in subset)
            assert abs(mu - want) <= 1e-6
        assert session.max_residual <= 1e-5
    report(5, "50 random oracles: rate to 1e-6 rel, probabilities to 1e-6 abs, residuals <= 1e-5")


def test_criterion_06_section2_reproduction():
    rng = random.Random(106)
    for _ in range(100):
        lam = rng.uniform(0.3, 3.0)
        mu_e = rng.uniform(0.0, 0.95)
        mu_f = rng.uniform(0.0, 1.0 - mu_e)
        trace = section2_demo(ExpMeasure(lam), mu_e, mu_f)
        assert trace.max_gap <= 1e-12
        assert abs(trace.identity_residual) <= 1e-12
        assert abs(trace.additivity_residual) <= 1e-12
    for lam in (0.3, 0.7, 1.0, 2.0, math.pi, 17.0, 41.01536198130687):
        trace = section2_demo(ExpMeasure(lam), 0.5, 0.5)
        assert trace.mu_hat["e"] == 0.5
        assert trace.mu_hat["f"] == 0.5
    report(6, "worked chain holds on 100 random triples (1e-12); complementary case recovers 1/2 exactly")


def test_criterion_07_nonadditivity_detection():
    beliefs = Beliefs({"a": 0.5, "b": 0.5})
    util = UtilityModel({"x": 1.0, "y": 0.0})
    rate = ExpMeasure(1.0)
    contaminated = ChoquetOracle(rate, util, Capacity.epsilon_contamination(beliefs, 0.1))
    found = elicit_measure(contaminated, rate, "x", "y")
    assert abs(found.max_residual - 0.1) <= 1e-6
    assert found.verdict == "FAIL"
    additive = ChoquetOracle(rate, util, Capacity.additive(beliefs))
    clean = elicit_measure(additive, rate, "x", "y")
    assert clean.verdict == "PASS"
    report(7, "contaminated capacity flagged FAIL with residual 0.1 +/- 1e-6; additive capacity passes")


def test_criterion_08_lottery_reduction():
    rng = random.Random(108)
    for _ in range(1000):
        model = random_model(rng)
        act = random_act_for(rng, model)
        assert abs(aa_value(model, act) - model.act_value(act)) <= 1e-12
    for _ in range(200):
        model = random_model(rng)
        rate = model.discount
        states = model.states
        lots = {}
        for s in states:
            raw = [rng.uniform(0.05, 1.0) for _ in range(3)]
            lots[s] = Lottery(
                {o: w / sum(raw) for o, w in zip(("o0", "o2", "o5"), raw)}
            )
        g = LotteryAct(lots)
        f = random_act_for(rng, model)
        t = rate.quantile(rng.uniform(0.05, 0.9))
        lhs, rhs = independence_witness(rate, t, g, f)
        assert lhs.distance(rhs) <= 1e-12
    rate = ExpMeasure(1.25)
    states = ("s0", "s1")
    rational = LotteryAct(
        {
            "s0": Lottery({"o0": 0.25, "o2": 0.5, "o5": 0.25}),
            "s1": Lottery({"o1": 1.0 / 3.0, "o4": 2.0 / 3.0}),
        }
    )
    head = realize_lottery_act(rate, 2.0, rational)
    for s in states:
        got = reduce_profile_on(rate, head.row(s), TimeInterval(0.0, 2.0))
        assert got.distance(rational.at(s)) <= 1e-12
    report(8, "reduction value equality (1000), mixture witness (200, 1e-12), rational lotteries recovered")


def test_criterion_09_bracketing():
    rng = random.Random(109)
    bins_grid = (1, 2, 4, 8, 16, 32, 64)
    for _ in range(50):
        model = random_model(rng)
        profile = random_act_for(rng, model).row(model.states[0])
        value = model.profile_value(profile)
        for n in bins_grid:
            res = bracket_profile(model, profile, n)
            assert model.profile_value(res.lower) <= value + 1e-12
            assert model.profile_value(res.upper) >= value - 1e-12
            assert res.gap <= 1.0 / n + 1e-12
    for _ in range(50):
        model = random_model(rng)
        act = random_act_for(rng, model)
        value = model.act_value(act)
        for n in bins_grid:
            res = bracket_act(model, act, n)
            assert model.act_value(res.lower) <= value + 1e-12
            assert model.act_value(res.upper) >= value - 1e-12
            assert res.gap <= 1.0 / n + 1e-12
    for _ in range(20):
        model = random_model(rng)
        profile = random_act_for(rng, model).row(model.states[0])
        for n in (2, 8, 16):
            bins = utility_bins(model, profile, n)
            for k in range(n):
                chosen = independent_selection(model.discount, bins, k / n)
                total = model.discount.mass(chosen)
                for b in bins:
                    assert abs(
                        model.discount.mass(chosen.intersect(b))
                        - total * model.discount.mass(b)
                    ) <= 1e-12
    report(9, "sandwich and gap <= 1/N for N in {1..64} on 100 targets; product independence (1e-12)")


def test_criterion_10_axiom_audit():
    util = {"a": 0.0, "b": 1.0, "c": 0.4}
    model = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel(util),
        Beliefs({"s0": 0.5, "s1": 0.3, "s2": 0.2}),
    )
    oracle = SEUOracle(model)
    for seed in (1, 2, 3, 4, 5):
        assert check_stationarity(oracle, 500, seed).verdict == PASS
        assert check_dominance(oracle, model, 500, seed).verdict == PASS
        assert check_t_monotonicity(oracle, 500, seed).verdict == PASS
        assert check_t_separability(oracle, 500, seed).verdict == PASS

    # tail-continuity proxy meets the theory bound on crafted strict pairs
    for rate, gap, span in ((1.0, 0.5, 1.0), (0.5, 0.2, 1.0), (2.0, 0.05, 1.0)):
        m = DSEUModel(
            ExpMeasure(rate),
            UtilityModel({"lo": 0.0, "hi": span}),
            Beliefs({"s0": 0.5, "s1": 0.5}),
        )
        strict_oracle = SEUOracle(m)
        f = GridAct.constant(m.states, "hi")
        g = GridAct.deterministic(
            m.states,
            StepProfile.before_after("hi", m.discount.quantile(1.0 - gap / span), "lo"),
        )
        found = check_monotone_continuity(strict_oracle, f, g, "lo", horizon_max=64)
        assert found.verdict == PASS
        assert found.data["tail_index"] <= math.ceil(math.log(span / gap) / rate) + 1

    # deviant oracles: logged violations replay deterministically
    mixed = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel({"a": -1.0, "b": 1.0, "c": 0.5}),
        Beliefs({"s0": 0.5, "s1": 0.3, "s2": 0.2}),
    )
    squared = FunctionalOracle(
        fn=lambda act: mixed.act_value(act) ** 2,
        states=mixed.states,
        outcomes=tuple(mixed.outcomes),
        discount=mixed.discount,
    )
    stationarity = check_stationarity(squared, 300, seed=7)
    assert stationarity.verdict == FAIL
    assert all(v.replay(squared) for v in stationarity.violations)

    cap = Capacity(
        ("s0", "s1"),
        {
            frozenset(): 0.0,
            frozenset({"s0"}): 1.0,
            frozenset({"s1"}): 0.0,
            frozenset({"s0", "s1"}): 1.0,
        },
    )
    blind = ChoquetOracle(ExpMeasure(1.0), UtilityModel({"a": 0.0, "b": 1.0}), cap)
    blind_rows = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel({"a": 0.0, "b": 1.0}),
        Beliefs({"s0": 0.5, "s1": 0.5}),
    )
    dominance = check_dominance(blind, blind_rows, 200, seed=9)
    assert dominance.verdict == FAIL
    assert all(v.replay(blind) for v in dominance.violations)
    report(10, "conforming oracle passes 4 axioms x 5 seeds x 500 samples; tail bound holds; violations replay")
