"""Rate and probability recovery, additivity audits, and the worked chain."""

import collections
import json
import math
import pathlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu import elicitation, serialize
from dseu.elicitation import (
    _event_plan,
    _session_plan,
    elicit_event,
    elicit_lambda,
    elicit_measure,
    run_session,
    section2_demo,
)
from dseu.equivalents import FALLBACK_HORIZON
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import ExpMeasure
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    Preference,
    ProtocolError,
    SEUOracle,
    WidenedOracle,
    subsets,
)

import event_plan_reference
import ranking_first
from capacity_reference import ReferenceCapacity

DATA = pathlib.Path(__file__).resolve().parents[1] / "demos" / "data"


def seu_for(rate: float, probs: dict[str, float], band=0.0):
    return SEUOracle(
        DSEUModel(
            ExpMeasure(rate),
            UtilityModel({"x": 1.0, "y": 0.0}),
            Beliefs(probs),
        ),
        band,
    )


class TestElicitLambda:
    def test_half_life_rate(self):
        oracle = seu_for(math.log(2.0), {"a": 0.5, "b": 0.5})
        got = elicit_lambda(oracle, "x", "y")
        assert got.rate == pytest.approx(math.log(2.0), rel=1e-8)

    def test_error_propagation_bound(self):
        lam = 2.0
        tol = 1e-6
        oracle = seu_for(lam, {"a": 0.5, "b": 0.5})
        got = elicit_lambda(oracle, "x", "y", tol=tol)
        assert abs(got.rate - lam) <= lam * lam * tol / math.log(2.0)

    def test_indifferent_pair_is_protocol_error(self):
        model = DSEUModel(
            ExpMeasure(1.0),
            UtilityModel({"x": 1.0, "y": 1.0, "z": 0.0}),
            Beliefs({"a": 1.0}),
        )
        with pytest.raises(ProtocolError):
            elicit_lambda(SEUOracle(model), "x", "y")

    def test_no_half_life_below_the_ceiling_is_protocol_error(self):
        oracle = CountingOracle(seu_for(1e-15, {"a": 1.0}), keep_log=True)
        with pytest.raises(ProtocolError, match="search ceiling"):
            elicit_lambda(oracle, "x", "y")
        # The ceiling's probe, then the ranking, which no probe settled.
        (probe, _, _), (top, bottom, ranked) = oracle.log[-2:]
        assert probe.row("a").cuts == (FALLBACK_HORIZON,)
        assert (top.at("a", 0.0), bottom.at("a", 0.0)) == ("x", "y")
        assert top.is_deterministic and not top.row("a").cuts
        assert ranked is Preference.STRICTLY_PREFERS_FIRST

    def test_wrong_way_pair_raises_the_ranking_error_after_its_probes(self):
        # "y" above "x": every probe answers "first" below the half-life and
        # "second" above it, up to the ceiling, whose "second" leaves no switch.
        oracle = CountingOracle(seu_for(math.log(2.0), {"a": 1.0}))
        with pytest.raises(ProtocolError, match="^half-life query needs a strict preference"):
            elicit_lambda(oracle, "y", "x")
        assert oracle.count > 1

    def test_ranking_is_left_out_once_a_probe_answered_second(self):
        oracle = seu_for(0.7, {"a": 0.6, "b": 0.4})
        got, eager = CountingOracle(oracle), CountingOracle(oracle)
        assert elicit_lambda(got, "x", "y") == ranking_first.elicit_lambda(eager, "x", "y")
        assert got.count == eager.count - 1

    def test_query_budget(self):
        oracle = CountingOracle(seu_for(0.7, {"a": 0.6, "b": 0.4}))
        elicit_lambda(oracle, "x", "y")
        assert oracle.count <= 64

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tolerance_that_is_not_above_zero_is_rejected(self, tol):
        oracle = CountingOracle(seu_for(0.7, {"a": 0.6, "b": 0.4}))
        for session in (elicit_lambda, run_session):
            with pytest.raises(ValueError, match=f"^tolerance must be > 0, got {tol}$"):
                session(oracle, "x", "y", tol=tol)
        assert oracle.count == 0

    def test_infinite_tolerance_is_rejected(self):
        # run_session used to raise OverflowError from its first hinted search.
        oracle = CountingOracle(seu_for(1.0, {"a": 0.5, "b": 0.5}))
        for session in (elicit_lambda, run_session):
            with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
                session(oracle, "x", "y", tol=math.inf)
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            elicit_event(oracle, ExpMeasure(1.0), {"a"}, "x", "y", tol=math.inf, hint=0.7)
        assert oracle.count == 0


LADDER = {"top": 1.6, "x": 1.0, "m": 0.35, "y": 0.0, "twin": 0.0}


@st.composite
def half_life_oracles(draw):
    """A weakly monotone oracle, an ordered pair of its outcomes and a tolerance.

    The oracles are SEU or Choquet on 1-3 states, unwrapped, banded or
    widened; the pairs rank either way or tie; the rates put the half-life
    anywhere up to past the search ceiling.
    """
    n = draw(st.integers(1, 3))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
    model = DSEUModel(
        ExpMeasure(draw(st.floats(1e-15, 1e3) | st.sampled_from((1e-15, 1e-11, math.log(2.0))))),
        UtilityModel(dict(LADDER)),
        Beliefs({f"s{i}": w / sum(raw) for i, w in enumerate(raw)}),
    )
    band = draw(st.sampled_from((0.0, 1e-3)) | st.floats(0.0, 2.0))
    wrap = draw(st.sampled_from(("none", "banded", "widened")))
    own_band = band if wrap == "banded" else 0.0
    if draw(st.booleans()):
        oracle = SEUOracle(model, own_band)
    else:
        capacity = Capacity.epsilon_contamination(model.beliefs, draw(st.floats(0.0, 1.0)))
        oracle = ChoquetOracle(model.discount, model.utility, capacity, own_band)
    if wrap == "widened":
        oracle = WidenedOracle(oracle, band)
    x, y = draw(st.lists(st.sampled_from(tuple(LADDER)), min_size=2, max_size=2, unique=True))
    return oracle, x, y, draw(st.floats(1e-9, 1e-2))


def half_life_outcome(search, oracle, x, y, tol):
    """The rate's bits, or the protocol error's message, and the queries asked."""
    log = CountingOracle(oracle, keep_log=True)
    try:
        got = search(log, x, y, tol).rate.hex()
    except ProtocolError as err:
        got = str(err)
    return got, log.log


class TestLazyRanking:
    @pytest.mark.identity
    @given(half_life_oracles())
    @settings(deadline=None)
    def test_results_errors_and_probes_match_the_ranking_first_search(self, case):
        got, asked = half_life_outcome(elicit_lambda, *case)
        want, eager = half_life_outcome(ranking_first.elicit_lambda, *case)
        assert got == want
        ranking, probes = eager[0], eager[1:]
        if ranking[2] is not Preference.STRICTLY_PREFERS_FIRST:
            # The eager search raised at once; the lazy one after its probes.
            assert asked[-1] == ranking
            return
        second = any(a is Preference.STRICTLY_PREFERS_SECOND for _, _, a in probes)
        ceiling = got.startswith("no half-life")
        assert asked == probes + ([] if second and not ceiling else [ranking])


class TestElicitEvent:
    def test_empty_and_full(self):
        oracle = seu_for(1.0, {"a": 0.4, "b": 0.6})
        rate = ExpMeasure(1.0)
        assert elicit_event(oracle, rate, frozenset(), "x", "y") == 0.0
        assert elicit_event(oracle, rate, frozenset({"a", "b"}), "x", "y") == 1.0

    def test_seu_probability_roundtrip(self):
        oracle = seu_for(1.0, {"a": 0.3, "b": 0.7})
        got = elicit_event(oracle, ExpMeasure(1.0), {"a"}, "x", "y")
        assert got == pytest.approx(0.3, abs=1e-6)

    def test_probability_grid(self):
        for p in [0.1 * k for k in range(10)]:
            oracle = seu_for(1.3, {"a": p, "b": 1.0 - p})
            got = elicit_event(oracle, ExpMeasure(1.3), {"a"}, "x", "y")
            assert got == pytest.approx(p, abs=1e-6)

    def test_contaminated_capacity_shrinks_probability(self):
        beliefs = Beliefs({"a": 0.5, "b": 0.5})
        cap = Capacity.epsilon_contamination(beliefs, 0.1)
        oracle = ChoquetOracle(
            ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), cap
        )
        got = elicit_event(oracle, ExpMeasure(1.0), {"a"}, "x", "y")
        assert got == pytest.approx(0.45, abs=1e-6)

    def test_unknown_state_rejected(self):
        oracle = seu_for(1.0, {"a": 0.4, "b": 0.6})
        with pytest.raises(ValueError):
            elicit_event(oracle, ExpMeasure(1.0), {"zz"}, "x", "y")

    @pytest.mark.parametrize("event", [set(), {"a", "b"}], ids=["empty", "sure"])
    @pytest.mark.parametrize(
        "tol, message",
        [
            (math.nan, "must be > 0, got nan"),
            (0.0, "must be > 0, got 0.0"),
            (-1.0, "must be > 0, got -1.0"),
            (math.inf, "must be finite, got inf"),
        ],
    )
    def test_tolerance_is_checked_before_the_empty_and_the_sure_event(self, event, tol, message):
        # Both used to return 0 or 1 without looking at tol.
        oracle = CountingOracle(seu_for(1.0, {"a": 0.4, "b": 0.6}))
        with pytest.raises(ValueError, match=f"^tolerance {message}$"):
            elicit_event(oracle, ExpMeasure(1.0), event, "x", "y", tol=tol)
        assert oracle.count == 0


class TestElicitMeasure:
    def test_seu_measure_is_additive(self):
        oracle = seu_for(1.0, {"a": 0.2, "b": 0.35, "c": 0.45})
        report = elicit_measure(oracle, ExpMeasure(1.0), "x", "y")
        assert report.max_residual <= 1e-5
        assert report.verdict == "PASS"
        for subset, want in {
            frozenset({"a"}): 0.2,
            frozenset({"b", "c"}): 0.8,
            frozenset({"a", "b", "c"}): 1.0,
        }.items():
            assert report.mu_hat[subset] == pytest.approx(want, abs=1e-6)

    def test_contamination_residual_is_epsilon(self):
        beliefs = Beliefs({"a": 0.5, "b": 0.5})
        cap = Capacity.epsilon_contamination(beliefs, 0.1)
        oracle = ChoquetOracle(
            ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), cap
        )
        report = elicit_measure(oracle, ExpMeasure(1.0), "x", "y")
        assert report.max_residual == pytest.approx(0.1, abs=1e-6)
        assert report.verdict == "FAIL"
        pair = (frozenset({"a"}), frozenset({"b"}))
        assert report.additivity_residuals[pair] == pytest.approx(0.1, abs=1e-6)

    @pytest.mark.parametrize("probs", [{"only": 1.0}, {"a": 0.2, "b": 0.35, "c": 0.45}])
    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0])
    def test_tolerance_that_is_not_above_zero_is_rejected_before_any_query(self, probs, tol):
        oracle = CountingOracle(seu_for(1.0, probs))
        with pytest.raises(ValueError, match=f"^tolerance must be > 0, got {tol}$"):
            elicit_measure(oracle, ExpMeasure(1.0), "x", "y", tol=tol)
        assert oracle.count == 0

    @pytest.mark.parametrize("probs", [{"only": 1.0}, {"a": 0.2, "b": 0.35, "c": 0.45}])
    def test_infinite_tolerance_is_rejected_before_any_query(self, probs):
        oracle = CountingOracle(seu_for(1.0, probs))
        with pytest.raises(ValueError, match="^tolerance must be finite, got inf$"):
            elicit_measure(oracle, ExpMeasure(1.0), "x", "y", tol=math.inf)
        assert oracle.count == 0

    def test_single_state_trivial_report(self):
        oracle = seu_for(1.0, {"only": 1.0})
        report = elicit_measure(oracle, ExpMeasure(1.0), "x", "y")
        assert report.mu_hat[frozenset({"only"})] == 1.0
        assert report.max_residual == 0.0
        assert report.verdict == "PASS"

    @pytest.mark.parametrize("path", sorted(DATA.glob("oracle_*.json")), ids=lambda p: p.name)
    def test_query_count_is_the_count_of_an_outer_counter(self, path):
        oracle = serialize.oracle_from_json(json.loads(path.read_text()))
        y, x = oracle.utility.anchors()
        counting = CountingOracle(oracle)
        report = run_session(counting, x, y)
        assert report.query_count == counting.count > 0
        counting = CountingOracle(oracle)
        report = elicit_measure(counting, ExpMeasure(report.lambda_hat), x, y)
        assert report.query_count == counting.count > 0

    def test_full_session_roundtrip(self):
        rng = random.Random(51)
        for _ in range(5):
            lam = rng.uniform(0.4, 2.0)
            n = rng.randint(2, 4)
            raw = [rng.uniform(0.1, 1.0) for _ in range(n)]
            probs = {f"s{i}": r / sum(raw) for i, r in enumerate(raw)}
            oracle = seu_for(lam, probs)
            report = run_session(oracle, "x", "y")
            assert abs(report.lambda_hat - lam) / lam <= 1e-6
            for i, p in enumerate(probs.values()):
                assert report.mu_hat[frozenset({f"s{i}"})] == pytest.approx(p, abs=1e-6)
            assert report.max_residual <= 1e-5
            assert report.query_count > 0


@st.composite
def session_oracles(draw):
    """SEU, epsilon-contaminated Choquet or ``P**2`` capacity on 3-7 states."""
    n = draw(st.integers(3, 7))
    raw = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    model = DSEUModel(
        ExpMeasure(draw(st.floats(0.3, 3.0))),
        UtilityModel({"x": 1.0, "y": 0.0}),
        Beliefs({f"s{i}": w / sum(raw) for i, w in enumerate(raw)}),
    )
    kind = draw(st.sampled_from(["seu", "contaminated", "squared"]))
    if kind == "seu":
        return SEUOracle(model)
    if kind == "contaminated":
        cap = Capacity.epsilon_contamination(model.beliefs, draw(st.floats(0.05, 0.3)))
    else:
        additive = Capacity.additive(model.beliefs)
        cap = Capacity(additive.states, {c: p * p for c, p in additive.weights.items()})
    return ChoquetOracle(model.discount, model.utility, cap)


def event_queries(log, states, start):
    """The queries ``log`` kept from ``start`` on, counted by their bet's event.

    Every event query compares against the event's bet: "x" on the event and
    "y" off it.  The half-life queries compare two deterministic acts.
    """
    counted = collections.Counter()
    for f, g, _ in log.log[start:]:
        bet = f if g.is_deterministic else g
        counted[frozenset(s for s in states if bet.at(s, 0.0) == "x")] += 1
    return counted


def warm_session(oracle):
    """A logged session on ``oracle``, its half-life search replayed apart and its event queries."""
    log = CountingOracle(oracle, keep_log=True)
    report = run_session(log, "x", "y")
    half_life = CountingOracle(oracle)
    rate = elicit_lambda(half_life, "x", "y")
    assert report.lambda_hat == rate.rate
    warm = event_queries(log, oracle.states, half_life.count)
    assert report.query_count == half_life.count + sum(warm.values())
    return report, rate, warm


@st.composite
def contaminated_oracles(draw):
    """An epsilon-contaminated Choquet oracle on 2-7 states."""
    n = draw(st.integers(2, 7))
    raw = draw(st.lists(st.floats(0.5, 1.5), min_size=n, max_size=n))
    beliefs = Beliefs({f"s{i}": w / sum(raw) for i, w in enumerate(raw)})
    cap = Capacity.epsilon_contamination(beliefs, draw(st.floats(0.05, 0.3)))
    return ChoquetOracle(
        ExpMeasure(draw(st.floats(0.3, 3.0))), UtilityModel({"x": 1.0, "y": 0.0}), cap
    )


class TestWarmStartedSession:
    @pytest.mark.identity
    @given(session_oracles())
    @settings(deadline=None)
    def test_equals_a_session_of_cold_searches(self, oracle):
        report, rate, warm_queries = warm_session(oracle)
        # The same session with every event searched from scratch.
        cold_mu, cold_queries = {}, {}
        for e in subsets(oracle.states):
            counting = CountingOracle(oracle)
            cold_mu[e] = elicit_event(counting, rate, e, "x", "y")
            cold_queries[e] = counting.count
        assert report.mu_hat == cold_mu
        for e, cold in cold_queries.items():
            assert warm_queries[e] <= cold + 3

    @pytest.mark.identity
    @pytest.mark.parametrize("n", range(2, 11))
    def test_last_singleton_of_an_seu_session_costs_at_most_three_queries(self, n):
        # One minus the other singletons predicts it, as it does every
        # composite event from its parts.
        rng = random.Random(n)
        raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
        oracle = seu_for(1.3, {f"s{i}": w / sum(raw) for i, w in enumerate(raw)})
        _, _, warm = warm_session(oracle)
        assert 0 < warm[frozenset({f"s{n - 1}"})] <= 3

    @pytest.mark.identity
    @given(contaminated_oracles())
    @settings(deadline=None)
    def test_last_singleton_of_a_contaminated_session_costs_at_most_three_more(self, oracle):
        # One minus the other singletons lies epsilon above the last one's
        # mass, so its gallop only adds probes to the cold search.
        _, rate, warm = warm_session(oracle)
        last = frozenset(oracle.states[-1:])
        cold = CountingOracle(oracle)
        elicit_event(cold, rate, last, "x", "y")
        assert warm[last] <= cold.count + 3


def named(states, mask):
    return frozenset(s for i, s in enumerate(states) if mask >> i & 1)


def hex_report(report):
    """Everything a report holds, floats as hex, dicts as ordered item lists."""
    return (
        report.lambda_hat.hex(),
        [(e, p.hex()) for e, p in report.mu_hat.items()],
        [(pair, r.hex()) for pair, r in report.additivity_residuals.items()],
        report.query_count,
    )


class TestEventPlan:
    @pytest.mark.parametrize("n", range(13))
    def test_matches_the_subset_families_reference(self, n):
        # Labels whose sorted order is not the state order.
        states = tuple(f"s{n - i}" for i in range(n))
        events, pairs = _event_plan(n)
        want_events, want_pairs = event_plan_reference.subset_families(states)
        assert [named(states, e) for e in events] == want_events
        assert [(named(states, e), named(states, f)) for e, f in pairs] == want_pairs
        # Only the power-set plans are kept.
        assert (_event_plan(n) is _event_plan(n)) == (n <= 10)

    @pytest.mark.parametrize("n", range(13))
    def test_positions_reproduce_the_mask_plan(self, n):
        events, pairs = _event_plan(n)
        got_events, parts, singles, triples = _session_plan(n)
        assert got_events is events or n > 10
        assert list(got_events) == list(events) and len(parts) == len(events)
        for e, part in zip(events, parts):
            states = [1 << i for i in range(n) if e >> i & 1]
            if len(states) < 2:
                assert part == ()
                continue
            # E - {s} and {s} for every state s of E, in state order; the
            # last is E less its last state and that state, the name split.
            assert [(events[a], events[b]) for a, b in part] == [(e ^ b, b) for b in states]
        assert [events[k] for k in singles] == [1 << i for i in range(n)]
        assert [(events[a], events[b], events[c]) for a, b, c in triples] == [
            (e, f, e | f) for e, f in pairs
        ]
        # Every part comes before the event that reads it.
        assert all(max(p) < k for k, part in enumerate(parts) for p in part)
        assert _session_plan(n) is _session_plan(n)

    def test_eleven_states_report_the_set_keyed_events(self, monkeypatch):
        # The plan of singletons and pairs: no empty event, no sure event.
        n = 11
        rng = random.Random(11)
        raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
        oracle = seu_for(1.3, {f"s{n - i}": w / sum(raw) for i, w in enumerate(raw)})
        got = run_session(oracle, "x", "y")
        assert len(got.mu_hat) == 66 and frozenset() not in got.mu_hat
        monkeypatch.setattr(elicitation, "elicit_measure", event_plan_reference.elicit_measure)
        want = run_session(oracle, "x", "y")
        assert list(got.mu_hat) == list(want.mu_hat)
        assert hex_report(got) == hex_report(want)

    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize("kind", ["seu", "contaminated", "squared"])
    def test_session_equals_the_set_keyed_session(self, n, kind, monkeypatch):
        rng = random.Random(f"{kind}:{n}")
        raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
        model = DSEUModel(
            ExpMeasure(rng.uniform(0.3, 3.0)),
            UtilityModel({"x": 1.0, "y": 0.0}),
            Beliefs({f"s{n - i}": w / sum(raw) for i, w in enumerate(raw)}),
        )

        def oracle_with(cls):
            if kind == "seu":
                return SEUOracle(model)
            capacity = cls.epsilon_contamination(model.beliefs, 0.2)
            if kind == "squared":
                additive = cls.epsilon_contamination(model.beliefs, 0.0)
                capacity = cls(additive.states, {c: p * p for c, p in additive.weights.items()})
            return ChoquetOracle(model.discount, model.utility, capacity)

        got = hex_report(run_session(oracle_with(Capacity), "x", "y"))
        # The reference session: set-keyed, with the act builders and the
        # capacity validation that came before.
        monkeypatch.setattr(elicitation, "elicit_measure", event_plan_reference.elicit_measure)
        for owner, name, reference in event_plan_reference.BUILDERS:
            monkeypatch.setattr(owner, name, reference)
        assert got == hex_report(run_session(oracle_with(ReferenceCapacity), "x", "y"))


def logged_session(oracle):
    """``run_session`` on ``oracle`` behind a logging counter, or the error it raised."""
    log = CountingOracle(oracle, keep_log=True)
    try:
        return run_session(log, "x", "y"), log
    except ProtocolError as error:
        return error, log


def assert_same_queries(got, want):
    assert got.count == want.count == len(got.log) == len(want.log)
    for (f, g, answer), (f_want, g_want, answer_want) in zip(got.log, want.log):
        assert f == f_want and g == g_want
        assert answer is answer_want


def session_oracle(kind, n):
    """An oracle of ``kind`` on ``n`` states, drawn from a seed of both."""
    rng = random.Random(f"loop:{kind}:{n}")
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    if kind == "null":
        # Events of mass 0 and 1 besides the empty and the sure one: their
        # searches end on an end query.
        raw[rng.randrange(n)] = 0.0
    model = DSEUModel(
        ExpMeasure(rng.uniform(0.3, 3.0)),
        UtilityModel({"x": 1.0, "y": 0.0}),
        Beliefs({f"s{n - i}": w / sum(raw) for i, w in enumerate(raw)}),
    )
    if kind in ("seu", "null"):
        return SEUOracle(model)
    if kind == "banded":
        return SEUOracle(model, 1e-4)
    if kind == "functional":
        # A monotone transform of the expected utility, valued without a memo.
        return FunctionalOracle(lambda f: model.act_value(f) ** 2, states=model.states)
    additive = Capacity.additive(model.beliefs)
    if kind == "contaminated":
        capacity = Capacity.epsilon_contamination(model.beliefs, 0.2)
    else:
        capacity = Capacity(additive.states, {c: p * p for c, p in additive.weights.items()})
    return ChoquetOracle(model.discount, model.utility, capacity)


class TestSessionLoop:
    """The session's event loop against the reference session of ``elicit_event`` calls."""

    @pytest.mark.identity
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize(
        "kind", ["seu", "null", "contaminated", "squared", "banded", "functional"]
    )
    def test_queries_and_report_equal_the_elicit_event_session(self, n, kind, monkeypatch):
        got, got_log = logged_session(session_oracle(kind, n))
        monkeypatch.setattr(elicitation, "elicit_measure", event_plan_reference.elicit_measure)
        want, want_log = logged_session(session_oracle(kind, n))
        assert hex_report(got) == hex_report(want)
        assert got.query_count == got_log.count
        assert_same_queries(got_log, want_log)

    @pytest.mark.identity
    @pytest.mark.parametrize("n", range(2, 8))
    @pytest.mark.parametrize(
        "shift, error",
        [
            (1.0, "oracle strictly prefers the act to constant 'x'"),
            (-1.0, "oracle strictly prefers constant 'y' to the act"),
        ],
    )
    def test_errors_equal_the_elicit_event_session(self, n, shift, error, monkeypatch):
        # Every bet is shifted by ``shift``, above "x" or below "y"; the
        # deterministic acts of the half-life search are not.
        model = session_oracle("seu", n).model

        def oracle():
            return FunctionalOracle(
                lambda f: model.act_value(f) + (shift if f.common_row is None else 0.0),
                states=model.states,
            )

        got, got_log = logged_session(oracle())
        monkeypatch.setattr(elicitation, "elicit_measure", event_plan_reference.elicit_measure)
        want, want_log = logged_session(oracle())
        assert isinstance(got, ProtocolError) and isinstance(want, ProtocolError)
        assert str(got) == str(want) == error
        assert_same_queries(got_log, want_log)


class TestSection2Demo:
    def test_random_triples_hold_the_chain(self):
        rng = random.Random(52)
        for _ in range(100):
            lam = rng.uniform(0.3, 3.0)
            mu_e = rng.uniform(0.0, 0.9)
            mu_f = rng.uniform(0.0, 1.0 - mu_e)
            trace = section2_demo(ExpMeasure(lam), mu_e, mu_f)
            assert trace.max_gap <= 1e-12
            assert abs(trace.identity_residual) <= 1e-12
            assert abs(trace.additivity_residual) <= 1e-12

    def test_degenerate_zero_masses(self):
        trace = section2_demo(ExpMeasure(1.4), 0.0, 0.0)
        assert trace.t_e == 0.0 and trace.t_f == 0.0 and trace.t_union == 0.0
        assert trace.max_gap <= 1e-15
        assert trace.mu_hat == {"e": 0.0, "f": 0.0, "union": 0.0}

    def test_complementary_events_recover_exactly_half(self):
        for lam in (0.3, 0.7, 1.0, 2.0, math.pi, 17.0, 41.01536198130687):
            trace = section2_demo(ExpMeasure(lam), 0.5, 0.5)
            assert trace.mu_hat["e"] == 0.5
            assert trace.mu_hat["f"] == 0.5
            assert trace.mu_hat["union"] == 1.0
            assert trace.max_gap <= 1e-12
            # the union's time equivalent needs the whole horizon here
            assert math.isinf(trace.t_union)

    def test_seven_acts_and_chain_structure(self):
        trace = section2_demo(ExpMeasure(1.0), 0.3, 0.2)
        assert len(trace.acts) == 7
        assert len(trace.chain) == 7
        names = set(trace.acts)
        for a, b in trace.chain:
            assert a in names and b in names
        # matrices are over the three state classes in a fixed order
        for act in trace.acts.values():
            assert act.states == ("e", "f", "r")

    def test_precondition_validation(self):
        with pytest.raises(ValueError):
            section2_demo(ExpMeasure(1.0), 0.7, 0.5)
        with pytest.raises(ValueError):
            section2_demo(ExpMeasure(1.0), -0.1, 0.5)


class TestEqualOutcomes:
    """One outcome on both sides of every bet and switch is rejected before any query."""

    @staticmethod
    def counted() -> CountingOracle:
        model = DSEUModel(
            ExpMeasure(1.0),
            UtilityModel({"x": 1.0, "y": 0.0}),
            Beliefs({"a": 0.5, "b": 0.3, "c": 0.2}),
        )
        return CountingOracle(SEUOracle(model))

    @pytest.mark.parametrize("event", [{"a"}, set(), {"a", "b", "c"}])
    def test_elicit_event(self, event):
        # {"a"} used to return 0.0 after 3 queries.
        oracle = self.counted()
        with pytest.raises(ValueError, match="the two outcomes must differ, got 'x' twice"):
            elicit_event(oracle, ExpMeasure(1.0), event, "x", "x")
        assert oracle.count == 0

    def test_elicit_measure(self):
        # It used to return a FAIL report after 21 queries.
        oracle = self.counted()
        with pytest.raises(ValueError, match="the two outcomes must differ"):
            elicit_measure(oracle, ExpMeasure(1.0), "x", "x")
        assert oracle.count == 0

    def test_one_state_elicit_measure(self):
        oracle = SEUOracle(
            DSEUModel(ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), Beliefs({"a": 1.0}))
        )
        with pytest.raises(ValueError, match="the two outcomes must differ"):
            elicit_measure(oracle, ExpMeasure(1.0), "y", "y")

    @pytest.mark.parametrize("run", [run_session, elicit_lambda])
    def test_half_life(self, run):
        # run_session used to raise only after 2 queries.
        oracle = self.counted()
        with pytest.raises(ValueError, match="the two outcomes must differ"):
            run(oracle, "x", "x")
        assert oracle.count == 0
