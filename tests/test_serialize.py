"""Round trips for every document format."""

import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dseu import serialize
from dseu.acts import GridAct, StepProfile
from dseu.aa import Lottery, LotteryAct
from dseu.elicitation import run_session, section2_demo
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeSet
from dseu.oracles import Capacity, ChoquetOracle, FunctionalOracle, SEUOracle, WidenedOracle

DATA = Path(__file__).resolve().parents[1] / "demos" / "data"

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


# Bounds equal to one another but distinct objects (two NaN objects are never
# equal): the encoder may reuse a text only for the very same object.
TWINS = st.sampled_from((0.0, -0.0, 1, 1.0, True, math.nan, float("nan")))


@st.composite
def chained_rows(draw):
    """Rows ``[lo, hi, *rest]``, each ``lo`` mostly the object ending the row before.

    Otherwise a ``lo`` is a fresh draw, often one of :data:`TWINS`, so an
    equal but distinct object stands where the same one would; one row may
    end up a cell longer or shorter than the others.
    """
    width = draw(st.integers(2, 4))
    bound = SCALARS | TWINS
    rows: list[list] = []
    for _ in range(draw(st.integers(1, 6))):
        lo = rows[-1][1] if rows and draw(st.booleans()) else draw(bound)
        rest = draw(st.lists(SCALARS, min_size=width - 2, max_size=width - 2))
        rows.append([lo, draw(bound), *rest])
    if draw(st.booleans()):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if draw(st.booleans()):
            row.pop()
        else:
            row.append(draw(SCALARS))
    return rows


def _containers(children):
    return (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=3).map(tuple)
        # Lists of flat rows, the shape rendered one column at a time unless
        # a row is empty or rows differ in length, and rows holding a nested
        # list or dict.
        | st.lists(st.lists(SCALARS, max_size=4), max_size=4)
        | chained_rows()
        | st.lists(st.lists(SCALARS | st.lists(SCALARS) | st.dictionaries(st.text(), SCALARS)))
        | st.dictionaries(st.text() | TRICKY, children, max_size=5)
        | st.dictionaries(st.integers(), children, max_size=3)
        | st.dictionaries(st.floats(), children, max_size=3)
        | st.dictionaries(st.booleans(), children, max_size=2)
        | st.dictionaries(st.none(), children, max_size=1)
    )


JSON_DOCS = st.recursive(SCALARS, _containers, max_leaves=40)


SHARED_NAN = float("nan")


def long_act_doc() -> dict:
    """A seeded act document of three rows of 1,200 pieces, with labels that JSON escapes.

    It renders its outcome columns by distinct string and reuses each cut's
    text at the size of a long act; drawn documents stop at 40 leaves.
    """
    rng = random.Random(33)
    labels = ('say "x"', "back\\slash", "caf\u00e9")
    rows = {}
    for s in ("a", "b", "c"):
        cuts = [c / 1e4 for c in sorted(rng.sample(range(1, 10**6), 1199))]
        k, outs = 0, []
        for _ in range(1200):
            k = (k + 1 + rng.getrandbits(1)) % 3
            outs.append(labels[k])
        rows[s] = StepProfile(tuple(cuts), tuple(outs))
    return serialize.act_to_json(GridAct(rows))


@pytest.mark.identity
@given(JSON_DOCS)
@example([[0.0, 0.0, "x"], [-0.0, "inf", "y"]])
@example([[0, 1, "x"], [1.0, 1.0, "y"], [True, "inf", "z"]])
@example([[0.0, math.nan, "x"], [float("nan"), "inf", "y"]])
@example([[SHARED_NAN, SHARED_NAN], [SHARED_NAN, SHARED_NAN], [SHARED_NAN, 1.5]])
@example([[0.0, "inf", "x"]])
@example([[0.0, 1.5, "x"], [1.5, "inf"]])
@example(long_act_doc())
@settings(deadline=None)
def test_dumps_equals_indented_json_dumps(doc):
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# -- profile_from_json against the per-row loop it replaced -------------------


def ref_profile_from_json(rows):
    def bound_in(x):
        if x == "inf":
            return INF
        if isinstance(x, (int, float)):
            return float(x)
        raise ValueError(f"expected a number or 'inf', got {x!r}")

    bounds = [(float(lo), bound_in(hi)) for lo, hi, _ in rows]
    end = 0.0
    for lo, hi in bounds:
        if lo != end or not lo < hi:
            raise ValueError(f"profile rows must tile [0, inf) in order: [{lo}, {hi}) after {end}")
        end = hi
    if end != INF:
        raise ValueError(f"profile rows must reach 'inf', last ends at {end}")
    return StepProfile(tuple([hi for _, hi in bounds[:-1]]), tuple([str(out) for *_, out in rows]))


BOUNDS = (
    st.floats(0.0, 10.0)
    | st.sampled_from((math.nan, INF, -0.0, -1.0, 1e308))
    | st.integers(-2, 12)
    | st.just(10**400)  # too large for a float
    | st.just("inf")
)
# Bounds the loop read as numbers and that now raise.
BAD_BOUNDS = st.booleans() | st.sampled_from(("0", "1.5", "inf", "x"))


@st.composite
def profile_rows(draw):
    """``[lo, hi, outcome]`` rows that tile ``[0, inf)``, then perturbed a few times.

    A perturbation puts a fresh bound in a row, drops, repeats or empties a
    row, or gives it a cell more or less; ints stand in for floats.
    """
    cuts = sorted(set(draw(st.lists(st.floats(1e-3, 10.0) | st.integers(1, 9), max_size=6))))
    ends = [draw(st.sampled_from((0.0, 0, -0.0))), *cuts, "inf"]
    rows = [[lo, hi, draw(st.sampled_from("xyz"))] for lo, hi in zip(ends, ends[1:])]
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        k = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(("bound", "bound", "bad", "drop", "repeat", "empty", "length")))
        if kind in ("bound", "bad"):
            if rows[k]:
                i = draw(st.integers(0, min(1, len(rows[k]) - 1)))
                rows[k][i] = draw(BOUNDS if kind == "bound" else BAD_BOUNDS)
        elif kind == "drop":
            del rows[k]
        elif kind == "repeat":
            rows.insert(k, list(rows[k]))
        elif kind == "empty":
            rows[k] = []
        elif not rows[k] or draw(st.booleans()):
            rows[k].append(draw(st.sampled_from((1.0, "w"))))
        else:
            rows[k].pop()
    return rows


def result_or_error(fn, rows):
    try:
        return fn(rows)
    except Exception as err:
        return f"{type(err).__name__}: {err}"


@pytest.mark.identity
@given(profile_rows())
@example([])
@example([[0.0, INF, "x"], [INF, "inf", "y"]])
@settings(deadline=None)
def test_profile_from_json_matches_the_row_loop(rows):
    got = result_or_error(serialize.profile_from_json, rows)
    bad = any(
        type(row[0]) in (bool, str)
        or len(row) > 1 and type(row[1]) is bool
        or len(row) > 2 and type(row[2]) is not str
        for row in rows
        if row
    )
    if bad:
        # A bound too large for a float may raise first, as it always did.
        assert isinstance(got, str) and got.startswith(("ValueError: ", "OverflowError: "))
    else:
        assert got == result_or_error(ref_profile_from_json, rows)


class TestCoreRoundTrips:
    def test_time_set(self):
        ts = TimeSet.from_pairs([(0.0, 1.5), (2.0, INF)])
        doc = serialize.time_set_to_json(ts)
        assert doc == [[0.0, 1.5], [2.0, "inf"]]
        assert serialize.time_set_from_json(doc) == ts

    @pytest.mark.parametrize(
        "doc", [[["0.5", "inf"]], [[True, 2.0]], [[0.0, True]], [["inf", "inf"]], [[None, 1.0]]]
    )
    def test_time_set_with_malformed_bounds_is_rejected(self, doc):
        with pytest.raises(ValueError, match="expected a number"):
            serialize.time_set_from_json(doc)

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

    def test_act_with_a_missing_profile_is_rejected(self):
        doc = serialize.act_to_json(sample_act())
        del doc["profiles"]["b"]
        with pytest.raises(ValueError, match=r"^act document misses profiles for states \['b'\]$"):
            serialize.act_from_json(doc)

    def test_act_with_a_repeated_state_is_rejected(self):
        doc = serialize.act_to_json(sample_act())
        doc["states"].append(doc["states"][0])
        with pytest.raises(ValueError, match=f"lists state {doc['states'][0]!r} twice"):
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
            [["0", 1.0, "x"], [True, "inf", "y"]],  # once read as cuts (1.0,)
            [[0.0, 1.0, "x"], [True, "inf", "y"]],
            [[False, 1.0, "x"], [1.0, "inf", "y"]],
            [[0.0, True, "x"], [1.0, "inf", "y"]],
            [[0.0, "1.0", "x"], [1.0, "inf", "y"]],
            [[0.0, "inf", None]],  # once read as the outcome 'None'
            [[0.0, "inf", 7]],
        ],
        ids=[
            "gap",
            "overlap",
            "late-start",
            "early-end",
            "inverted",
            "nan",
            "empty",
            "string-and-bool-lo",
            "bool-lo",
            "bool-first-lo",
            "bool-hi",
            "string-hi",
            "null-outcome",
            "number-outcome",
        ],
    )
    def test_act_with_malformed_profile_is_rejected(self, rows):
        doc = serialize.act_to_json(sample_act())
        doc["profiles"]["a"] = rows
        with pytest.raises(ValueError):
            serialize.act_from_json(json.loads(json.dumps(doc)))

    @pytest.mark.parametrize("label", [None, 7, 1.5, ["x"]])
    def test_a_non_string_outcome_is_named(self, label):
        rows = [[0.0, 1.0, "x"], [1.0, "inf", label]]
        message = f"expected a string for an outcome, got {label!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            serialize.profile_from_json(rows)

    @pytest.mark.parametrize("read", [serialize.act_from_json, serialize.lottery_act_from_json])
    def test_a_non_string_state_is_rejected(self, read):
        # Once read as the state 'None', which the tables below name.
        doc = {
            "states": [None],
            "profiles": {"None": [[0.0, "inf", "x"]]},
            "lotteries": {"None": {"x": 1.0}},
        }
        with pytest.raises(ValueError, match="^expected a string for a state, got None$"):
            read(doc)

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

    def test_lottery_act_states_follow_the_document(self):
        doc = json.loads((DATA / "lottery_act.json").read_text())
        assert serialize.lottery_act_from_json(doc).states == ("boom", "flat", "bust")

    @pytest.mark.parametrize(
        "states, lotteries, message",
        [
            (["a", "b", "c"], {"z": {"x": 1.0}}, r"misses lotteries for states \['a', 'b', 'c'\]$"),
            (["a"], {"a": {"x": 1.0}, "z": {"x": 1.0}}, r"has lotteries for unlisted states \['z'\]$"),
            (["a", "a"], {"a": {"x": 1.0}}, r"lists state 'a' twice in \['a', 'a'\]$"),
        ],
        ids=["missing", "extra", "repeated"],
    )
    def test_lottery_act_must_match_its_states(self, states, lotteries, message):
        doc = {"states": states, "lotteries": lotteries}
        with pytest.raises(ValueError, match="^act document " + message):
            serialize.lottery_act_from_json(doc)

    @pytest.mark.parametrize("prob", [True, "0.5", None, [0.5]])
    def test_lottery_probability_must_be_a_number(self, prob):
        doc = {"states": ["a"], "lotteries": {"a": {"x": prob, "y": 0.5}}}
        message = f"expected a number for the probability of 'x', got {prob!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.lottery_act_from_json(doc)

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

    @pytest.mark.parametrize("key", ["a", "a,b", "a,b,c"])
    def test_nan_capacity_weight_rejected(self, key):
        doc = {
            "kind": "choquet",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 0.0},
            "capacity": {"a": 0.2, "b": 0.3, "c": 0.1, "a,b": 0.6, "a,c": 0.4, "b,c": 0.5},
        }
        doc["capacity"][key] = float("nan")
        text = json.dumps(doc)  # NaN is written as a bare NaN token
        with pytest.raises(ValueError, match=re.escape(f"capacity of {key.split(',')} is NaN")):
            serialize.oracle_from_json(json.loads(text))

    @pytest.mark.parametrize(
        "capacity, first, second",
        [
            (
                {"a": 0.2, "b": 0.3, "c": 0.1, "a,b": 0.5, "b,a": 0.6, "a,c": 0.4, "b,c": 0.5, "a,b,c": 1.0},
                "a,b",
                "b,a",
            ),
            ({"a": 0.2, "b": 0.3, "a,a": 0.25, "a,b": 1.0}, "a", "a,a"),
            ({"": 0.0, "a": 0.2, ",": 0.0, "a,b": 1.0}, "", ","),
        ],
        ids=["reordered", "repeated-state", "empty"],
    )
    def test_subset_named_twice_rejected(self, capacity, first, second):
        # Each used to keep the later weight.
        message = f"the capacity document names one subset twice, as {first!r} and {second!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.capacity_from_json(capacity)

    def test_widened_round_trip(self):
        oracle = WidenedOracle(SEUOracle(sample_model()), extra_band=0.01)
        doc = serialize.oracle_to_json(oracle)
        assert "band_inflation" not in doc and doc["band"] == 0.01
        back = serialize.oracle_from_json(doc)
        assert type(back) is SEUOracle and back == SEUOracle(sample_model(), band=0.01)

    def test_capacity_naming_no_states_rejected(self):
        with pytest.raises(ValueError, match="^capacity document names no states$"):
            serialize.capacity_from_json({"": 0.0})

    def test_functional_oracle_cannot_be_written(self):
        oracle = FunctionalOracle(lambda f: 0.0)
        with pytest.raises(ValueError, match="^cannot serialize oracle of type FunctionalOracle$"):
            serialize.oracle_to_json(oracle)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            serialize.oracle_from_json({"kind": "maxmin"})

    # A JSON NaN token reads as a float NaN; the string "nan" is not a number.
    @pytest.mark.parametrize("inflation", [-0.5, float("nan")])
    def test_negative_or_nan_inflation_rejected(self, inflation):
        doc = serialize.oracle_to_json(SEUOracle(sample_model()))
        doc["band_inflation"] = inflation
        with pytest.raises(ValueError, match="band inflation must be >= 0"):
            serialize.oracle_from_json(doc)

    @pytest.mark.parametrize("inflation", [0.0, -0.0, 0])
    def test_zero_inflation_gives_the_bare_oracle(self, inflation):
        oracle = SEUOracle(sample_model())
        doc = serialize.oracle_to_json(oracle)
        doc["band_inflation"] = inflation
        back = serialize.oracle_from_json(doc)
        assert type(back) is SEUOracle and back == oracle


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

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("lambda_hat",), "1.0", "expected a number for 'lambda_hat', got '1.0'"),
            (("mu_hat", "a"), None, "expected a number for 'mu_hat' of 'a', got None"),
            (
                ("additivity_residuals", 0, "residual"),
                True,
                "expected a number for a residual, got True",
            ),
            (
                ("residual_tolerance",),
                [0.001],
                "expected a number for 'residual_tolerance', got [0.001]",
            ),
            (("query_count",), True, "expected an integer for 'query_count', got True"),
            (("query_count",), 12.0, "expected an integer for 'query_count', got 12.0"),
        ],
        ids=["lambda_hat", "mu_hat", "residual", "tolerance", "count-bool", "count-float"],
    )
    def test_elicitation_report_fields_must_be_numbers(self, path, value, message):
        report = run_session(SEUOracle(sample_model()), "x", "y", tol=1e-6)
        doc = json.loads(json.dumps(serialize.elicitation_report_to_json(report)))
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        parent[last] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.elicitation_report_from_json(doc)

    @pytest.mark.parametrize("twice", ["b,a", "a,a,b"])
    def test_elicitation_report_subset_named_twice_rejected(self, twice):
        report = run_session(SEUOracle(sample_model()), "x", "y", tol=1e-6)
        doc = json.loads(json.dumps(serialize.elicitation_report_to_json(report)))
        doc["mu_hat"][twice] = doc["mu_hat"]["a,b"]
        message = f"'mu_hat' names one subset twice, as 'a,b' and {twice!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            serialize.elicitation_report_from_json(doc)

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


class TestStateLabels:
    """State labels that subset keys cannot spell: empty, or holding a comma."""

    @pytest.mark.parametrize("label", ["", "b,c", ","])
    def test_model_mu_key(self, label):
        doc = serialize.model_to_json(sample_model())
        doc["mu"] = {"a": 0.5, label: 0.5}
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize.model_from_json(doc)

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_seu_oracle_mu_key(self, label):
        doc = serialize.oracle_to_json(SEUOracle(sample_model()))
        doc["mu"] = {"a": 0.5, label: 0.5}
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize.oracle_from_json(doc)

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_act_state(self, label):
        doc = {"states": ["a", label], "profiles": {"a": [[0, "inf", "x"]], label: [[0, "inf", "y"]]}}
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize.act_from_json(doc)

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_lottery_act_state(self, label):
        doc = {"states": [label], "lotteries": {label: {"x": 1.0}}}
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize.lottery_act_from_json(doc)

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_writers_reject_it_before_writing(self, label):
        model = DSEUModel(
            ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), Beliefs({"a": 0.5, label: 0.5})
        )
        lotteries = LotteryAct({"a": Lottery({"x": 1.0}), label: Lottery({"y": 1.0})})
        capacity = Capacity.additive(model.beliefs)
        for write, value in [
            (serialize.model_to_json, model),
            (serialize.act_to_json, GridAct.constant(("a", label), "x")),
            (serialize.lottery_act_to_json, lotteries),
            (serialize.oracle_to_json, SEUOracle(model)),
            (serialize.oracle_to_json, ChoquetOracle(model.discount, model.utility, capacity)),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
                write(value)

    def test_writers_check_the_states_in_order(self):
        # Both labels are bad; the first one in state order is named.
        beliefs = Beliefs({"a": 0.2, "c,d": 0.3, "": 0.5})
        model = DSEUModel(ExpMeasure(1.0), UtilityModel({"x": 1.0, "y": 0.0}), beliefs)
        oracle = ChoquetOracle(model.discount, model.utility, Capacity.additive(beliefs))
        for doc in (model, SEUOracle(model), oracle):
            write = serialize.model_to_json if doc is model else serialize.oracle_to_json
            with pytest.raises(ValueError, match=re.escape("state label 'c,d'")):
                write(doc)
        with pytest.raises(ValueError, match=re.escape("state label ''")):
            serialize.act_to_json(GridAct.constant(("a", "", "c,d"), "x"))

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_subset_key(self, label):
        with pytest.raises(ValueError, match=re.escape(f"state label {label!r}")):
            serialize.subset_key(frozenset({"a", label}))
        # Any other label keeps its round trip.
        subset = frozenset({"a", "b c", "é", "0"})
        assert serialize.subset_from_key(serialize.subset_key(subset)) == subset
