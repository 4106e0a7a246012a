"""Round trips for every document format."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu import serialize
from dseu.acts import GridAct, StepProfile
from dseu.aa import Lottery, LotteryAct
from dseu.elicitation import run_session, section2_demo
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeSet
from dseu.oracles import Capacity, ChoquetOracle, SEUOracle, WidenedOracle


def sample_model() -> DSEUModel:
    return DSEUModel(
        ExpMeasure(0.8),
        UtilityModel({"x": 1.0, "y": 0.0, "z": 0.25}),
        Beliefs({"a": 0.5, "b": 0.3, "c": 0.2}),
    )


def sample_act() -> GridAct:
    return GridAct(
        {
            "a": StepProfile.from_breakpoints([1.0, 2.5], ["x", "y", "z"]),
            "b": StepProfile.constant("y"),
            "c": StepProfile.before_after("z", 0.75, "x"),
        }
    )


# Strings that look like a row boundary of the rendered text, or need escapes.
TRICKY = st.sampled_from(
    ("],\n  [", "],\n    [", "]", "[", '"', "\\", "\x00\x1f\x7f", "\n\t\r", "é\u2028\U0001f600")
)
SCALARS = (
    st.text()
    | TRICKY
    | st.floats()
    | st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 2**200, -(2**63)))
    | st.integers()
    | st.booleans()
    | st.none()
)


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        # Lists of flat rows, the shape rendered in one piece unless a row is
        # empty, and rows holding a nested list or dict.
        | st.lists(st.lists(SCALARS, max_size=4), max_size=4)
        | st.lists(st.lists(SCALARS | st.lists(SCALARS) | st.dictionaries(st.text(), SCALARS)))
        | st.dictionaries(st.text() | TRICKY, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none(), children, max_size=1)
    )


JSON_DOCS = st.recursive(SCALARS, _containers, max_leaves=40)


@given(JSON_DOCS)
@settings(deadline=None)
def test_dumps_equals_indented_json_dumps(doc):
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


class TestCoreRoundTrips:
    def test_time_set(self):
        ts = TimeSet.from_pairs([(0.0, 1.5), (2.0, INF)])
        doc = serialize.time_set_to_json(ts)
        assert doc == [[0.0, 1.5], [2.0, "inf"]]
        assert serialize.time_set_from_json(doc) == ts

    def test_act(self):
        act = sample_act()
        doc = serialize.act_to_json(act)
        back = serialize.act_from_json(json.loads(json.dumps(doc)))
        assert back == act

    def test_act_with_unlisted_profiles_is_rejected(self):
        doc = serialize.act_to_json(sample_act())
        doc["states"].remove("c")
        with pytest.raises(ValueError, match=r"unlisted states \['c'\]"):
            serialize.act_from_json(doc)

    @pytest.mark.parametrize(
        "rows",
        [
            [[0.0, 1.0, "x"], [2.0, "inf", "y"]],  # gap
            [[0.0, 2.0, "x"], [1.0, "inf", "y"]],  # overlap
            [[0.5, 1.0, "x"], [1.0, "inf", "y"]],  # starts after 0
            [[0.0, 1.0, "x"], [1.0, 5.0, "y"]],  # ends before inf
            [[0.0, 2.0, "x"], [2.0, 1.0, "y"], [1.0, "inf", "z"]],  # inverted row
            [[0.0, float("nan"), "x"], [float("nan"), "inf", "y"]],
            [],
        ],
        ids=["gap", "overlap", "late-start", "early-end", "inverted", "nan", "empty"],
    )
    def test_act_with_malformed_profile_is_rejected(self, rows):
        doc = serialize.act_to_json(sample_act())
        doc["profiles"]["a"] = rows
        with pytest.raises(ValueError):
            serialize.act_from_json(json.loads(json.dumps(doc)))

    def test_model(self):
        model = sample_model()
        doc = serialize.model_to_json(model)
        back = serialize.model_from_json(json.loads(json.dumps(doc)))
        assert back == model

    def test_lottery_act(self):
        la = LotteryAct(
            {
                "a": Lottery({"x": 0.5, "y": 0.5}),
                "b": Lottery({"z": 1.0}),
            }
        )
        back = serialize.lottery_act_from_json(serialize.lottery_act_to_json(la))
        assert back.distance(la) == 0.0

    def test_subset_keys(self):
        assert serialize.subset_key(frozenset({"b", "a"})) == "a,b"
        assert serialize.subset_from_key("a,b") == frozenset({"a", "b"})
        assert serialize.subset_from_key("") == frozenset()


class TestOracleSpecs:
    def test_seu_round_trip(self):
        oracle = SEUOracle(sample_model(), band=1e-6)
        doc = serialize.oracle_to_json(oracle)
        back = serialize.oracle_from_json(doc)
        assert isinstance(back, SEUOracle)
        assert back == oracle

    def test_choquet_round_trip(self):
        model = sample_model()
        cap = Capacity.epsilon_contamination(model.beliefs, 0.1)
        oracle = ChoquetOracle(model.discount, model.utility, cap)
        doc = serialize.oracle_to_json(oracle)
        back = serialize.oracle_from_json(json.loads(json.dumps(doc)))
        assert isinstance(back, ChoquetOracle)
        assert back.capacity.weights == oracle.capacity.weights

    def test_widened_round_trip(self):
        oracle = WidenedOracle(SEUOracle(sample_model()), extra_band=0.01)
        back = serialize.oracle_from_json(serialize.oracle_to_json(oracle))
        assert isinstance(back, WidenedOracle)
        assert back.extra_band == 0.01

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            serialize.oracle_from_json({"kind": "maxmin"})


class TestReportDocuments:
    def test_elicitation_report_round_trip(self):
        oracle = SEUOracle(sample_model())
        report = run_session(oracle, "x", "y", tol=1e-6)
        doc = serialize.elicitation_report_to_json(report)
        back = serialize.elicitation_report_from_json(json.loads(json.dumps(doc)))
        assert back.lambda_hat == report.lambda_hat
        assert back.mu_hat == report.mu_hat
        assert back.additivity_residuals == report.additivity_residuals
        assert back.verdict == report.verdict

    def test_section2_trace_serializes_infinities(self):
        trace = section2_demo(ExpMeasure(1.0), 0.5, 0.5)
        doc = serialize.section2_trace_to_json(trace)
        assert doc["times"]["t_union"] == "inf"
        json.dumps(doc)  # must be plain JSON

    def test_dumps_is_stable(self):
        doc = serialize.model_to_json(sample_model())
        assert serialize.dumps(doc) == serialize.dumps(json.loads(serialize.dumps(doc)))

    def test_bracket_document_contents_read_back(self):
        from dseu.bracketing import bracket_act, bracket_profile

        model = sample_model()
        act = sample_act()
        doc = serialize.bracket_to_json(bracket_act(model, act, 4))
        doc = json.loads(json.dumps(doc))
        lower = serialize.act_from_json(doc["lower"])
        assert set(lower.states) == set(act.states)
        assert all(serialize.subset_from_key(b) <= set(act.states) for b in doc["bins"])
        pdoc = serialize.bracket_to_json(bracket_profile(model, act.row("a"), 4))
        pdoc = json.loads(json.dumps(pdoc))
        serialize.profile_from_json(pdoc["upper"])
        for b in pdoc["bins"]:
            serialize.time_set_from_json(b)

    def test_audit_document_violations_read_back(self):
        from dseu.audit import check_stationarity
        from dseu.evaluate import DSEUModel
        from dseu.oracles import FunctionalOracle

        mixed = DSEUModel(
            ExpMeasure(1.0),
            UtilityModel({"x": -1.0, "y": 1.0, "z": 0.5}),
            Beliefs({"a": 0.5, "b": 0.5}),
        )
        deviant = FunctionalOracle(
            fn=lambda a: mixed.act_value(a) ** 2,
            states=mixed.states,
            outcomes=tuple(mixed.outcomes),
            discount=mixed.discount,
        )
        report = check_stationarity(deviant, samples=150, seed=2)
        assert report.violations
        doc = json.loads(json.dumps(serialize.check_report_to_json(report)))
        first = doc["violations"][0]["queries"][0]
        left = serialize.act_from_json(first["first"])
        right = serialize.act_from_json(first["second"])
        # replaying the deserialized witness reproduces the logged answer
        assert deviant.compare(left, right).name == first["answer"]
