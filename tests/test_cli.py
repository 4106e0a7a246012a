"""Command-line behavior: outputs, exit codes, byte stability."""

import json
import math
from pathlib import Path

import pytest

from dseu import serialize
from dseu.cli import main
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import ExpMeasure
from dseu.acts import GridAct, StepProfile

DEMO_ORACLE = Path(__file__).resolve().parent.parent / "demos" / "data" / "oracle_seu.json"


@pytest.fixture
def model_path(tmp_path):
    model = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel({"x": 1.0, "y": 0.0}),
        Beliefs({"a": 0.3, "b": 0.7}),
    )
    path = tmp_path / "model.json"
    path.write_text(serialize.dumps(serialize.model_to_json(model)))
    return str(path)


@pytest.fixture
def act_path(tmp_path):
    act = GridAct(
        {
            "a": StepProfile.before_after("x", 1.0, "y"),
            "b": StepProfile.constant("y"),
        }
    )
    path = tmp_path / "act.json"
    path.write_text(serialize.dumps(serialize.act_to_json(act)))
    return str(path)


@pytest.fixture
def oracle_path(tmp_path):
    doc = {
        "kind": "seu",
        "lambda": 1.0,
        "utility": {"x": 1.0, "y": 0.0},
        "mu": {"a": 0.3, "b": 0.7},
        "band": 0.0,
    }
    path = tmp_path / "oracle.json"
    path.write_text(serialize.dumps(doc))
    return str(path)


class TestEval:
    def test_prints_both_orders(self, capsys, model_path, act_path):
        assert main(["eval", model_path, act_path]) == 0
        out = capsys.readouterr().out
        assert "state-first" in out and "time-first" in out

    def test_json_output(self, tmp_path, capsys, model_path, act_path):
        out = tmp_path / "value.json"
        assert main(["eval", model_path, act_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["value_state_first"] == pytest.approx(doc["value_time_first"], abs=1e-12)
        # mu(a) * mass([0,1)) = 0.3 * (1 - e^-1)
        assert doc["value"] == pytest.approx(0.3 * (1 - math.exp(-1.0)), abs=1e-12)

    def test_act_on_other_states_is_an_error(self, tmp_path, capsys, model_path):
        path = tmp_path / "act_a.json"
        path.write_text(serialize.dumps(serialize.act_to_json(GridAct.constant(("a",), "x"))))
        assert main(["eval", model_path, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "missing ['b']" in captured.err


    @pytest.mark.parametrize(
        "rows",
        ['[[0.0, 1.0, "x"], [2.0, "inf", "y"]]', '[[0.0, NaN, "x"], [NaN, "inf", "y"]]'],
        ids=["gap", "nan"],
    )
    def test_malformed_profile_is_an_error(self, tmp_path, capsys, model_path, rows):
        path = tmp_path / "act_bad.json"
        path.write_text(
            '{"states": ["a", "b"], "profiles": {"a": %s, "b": [[0.0, "inf", "y"]]}}' % rows
        )
        assert main(["eval", model_path, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err.lower()


class TestEquiv:
    def test_closed_form(self, tmp_path, capsys, model_path, act_path):
        out = tmp_path / "te.json"
        code = main(
            ["equiv", act_path, "--model", model_path, "--upper", "x", "--lower", "y",
             "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        want = -math.log1p(-0.3 * (1 - math.exp(-1.0)))
        assert doc["t"] == pytest.approx(want, rel=1e-9)

    def test_bisection_matches(self, tmp_path, model_path, act_path, oracle_path):
        out = tmp_path / "te.json"
        code = main(
            ["equiv", act_path, "--oracle", oracle_path, "--upper", "x", "--lower", "y",
             "--rate", "1.0", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        want = -math.log1p(-0.3 * (1 - math.exp(-1.0)))
        assert doc["t"] == pytest.approx(want, abs=1e-8)

    def test_zero_rate_is_an_error(self, capsys, act_path, oracle_path):
        # It used to be ignored, as if no rate were given.
        code = main(
            ["equiv", act_path, "--oracle", oracle_path, "--upper", "x", "--lower", "y",
             "--rate", "0"]
        )
        assert code == 1
        assert "rate must be > 0" in capsys.readouterr().err

    def test_missing_source_is_usage_error(self, act_path):
        assert main(["equiv", act_path, "--upper", "x", "--lower", "y"]) == 1

    def test_top_act_prints_the_whole_horizon(self, tmp_path, capsys, model_path):
        path = tmp_path / "top.json"
        path.write_text(serialize.dumps(serialize.act_to_json(GridAct.constant(("a", "b"), "x"))))
        code = main(["equiv", str(path), "--model", model_path, "--upper", "x", "--lower", "y"])
        assert code == 0
        assert "time equivalent (closed form): whole horizon" in capsys.readouterr().out

    def test_nan_tolerance_is_an_error(self, capsys, act_path, oracle_path):
        # It used to print t = 0.5 and exit 0.
        code = main(
            ["equiv", act_path, "--oracle", oracle_path, "--upper", "x", "--lower", "y",
             "--tol", "nan"]
        )
        assert code == 1
        assert "tolerance must be > 0, got nan" in capsys.readouterr().err

    def test_infinite_tolerance_is_an_error(self, capsys, act_path, oracle_path):
        # It used to print a time equivalent and exit 0.
        code = main(
            ["equiv", act_path, "--oracle", oracle_path, "--upper", "x", "--lower", "y",
             "--tol", "inf"]
        )
        assert code == 1
        assert "tolerance must be finite, got inf" in capsys.readouterr().err

    def test_equal_outcomes_are_an_error(self, capsys):
        # It used to exit 2, blaming the oracle for preferring constant 'high' to the act.
        act = str(DEMO_ORACLE.parent / "act.json")
        code = main(
            ["equiv", act, "--oracle", str(DEMO_ORACLE), "--upper", "high", "--lower", "high"]
        )
        assert code == 1
        assert "the two outcomes must differ, got 'high' twice" in capsys.readouterr().err


class TestElicit:
    def test_report_written(self, tmp_path, capsys, oracle_path):
        out = tmp_path / "report.json"
        assert main(["elicit", oracle_path, "--tol", "1e-7", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["lambda_hat"] == pytest.approx(1.0, rel=1e-5)
        assert doc["mu_hat"]["a"] == pytest.approx(0.3, abs=1e-4)
        assert doc["verdict"] == "PASS"

    @pytest.mark.parametrize("flag", ["--upper", "--lower"])
    def test_one_anchor_alone_is_a_usage_error(self, capsys, oracle_path, flag):
        assert main(["elicit", oracle_path, flag, "x"]) == 1
        assert "give both --upper and --lower, or neither" in capsys.readouterr().err

    def test_nan_tolerance_is_an_error(self, capsys, oracle_path):
        # It used to report a rate of 1.386 and a FAIL verdict, and exit 0.
        assert main(["elicit", oracle_path, "--tol", "nan"]) == 1
        assert "tolerance must be > 0, got nan" in capsys.readouterr().err

    def test_infinite_tolerance_is_an_error(self, capsys, oracle_path):
        # It used to raise OverflowError from the session's first hinted search.
        assert main(["elicit", oracle_path, "--tol", "inf"]) == 1
        assert "tolerance must be finite, got inf" in capsys.readouterr().err

    def test_nan_capacity_weight_is_an_error(self, tmp_path, capsys):
        doc = {
            "kind": "choquet",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 0.0},
            "capacity": {"a": 0.4, "b": float("nan")},
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert main(["elicit", str(path)]) == 1
        assert "capacity of ['b'] is NaN" in capsys.readouterr().err

    def test_protocol_error_exit_code(self, tmp_path):
        doc = {
            "kind": "seu",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 1.0, "z": 0.0},
            "mu": {"a": 1.0},
            "band": 0.0,
        }
        path = tmp_path / "flat.json"
        path.write_text(serialize.dumps(doc))
        assert main(["elicit", str(path), "--upper", "x", "--lower", "y"]) == 2

    def test_equal_outcomes_are_an_error(self, capsys, oracle_path):
        assert main(["elicit", oracle_path, "--upper", "x", "--lower", "x"]) == 1
        assert "the two outcomes must differ, got 'x' twice" in capsys.readouterr().err

    @pytest.mark.parametrize("label", ["", "b,c"])
    def test_state_label_no_subset_key_spells_is_an_error(self, tmp_path, capsys, label):
        # With "" it used to report 8 events and write 7 'mu_hat' keys; with
        # "b,c" the report read back with the subset {b, c} for the state.
        doc = {
            "kind": "seu",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 0.0},
            "mu": {"a": 0.5, label: 0.5},
            "band": 0.0,
        }
        path = tmp_path / "oracle.json"
        path.write_text(serialize.dumps(doc))
        out = tmp_path / "report.json"
        assert main(["elicit", str(path), "--out", str(out)]) == 1
        assert f"state label {label!r} is empty or holds a comma" in capsys.readouterr().err
        assert not out.exists()


class TestAudit:
    def test_seu_spec_passes(self, tmp_path, capsys, oracle_path):
        out = tmp_path / "audit.json"
        code = main(
            ["audit", oracle_path, "--samples", "60", "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is True
        assert doc["checks"]["stationarity"]["verdict"] == "PASS"

    def test_band_inflation_audits_like_the_summed_band(self, tmp_path, capsys):
        doc = json.loads(DEMO_ORACLE.read_text())
        inflated = tmp_path / "inflated.json"
        inflated.write_text(json.dumps({**doc, "band_inflation": 0.001}))
        folded = tmp_path / "folded.json"
        folded.write_text(json.dumps({**doc, "band": doc["band"] + 0.001}))
        outs = []
        for path in (inflated, folded):
            out = tmp_path / f"audit_{path.stem}.json"
            flags = ["--samples", "20", "--seed", "7", "--out", str(out)]
            assert main(["audit", str(path), *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert any(line.startswith("decomposition") for line in lines)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestBracket:
    def test_act_bracket(self, tmp_path, capsys, model_path, act_path):
        out = tmp_path / "bracket.json"
        assert main(
            ["bracket", model_path, act_path, "--bins", "8", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "act"
        assert doc["gap"] <= 1 / 8 + 1e-12

    def test_profile_mode_needs_a_deterministic_act(self, capsys, model_path, act_path):
        assert main(["bracket", model_path, act_path, "--bins", "4", "--mode", "profile"]) == 1
        assert "profile mode needs a deterministic act" in capsys.readouterr().err


class TestAA:
    def test_reduction_with_witnesses(self, tmp_path, capsys, model_path, act_path):
        out = tmp_path / "aa.json"
        code = main(["aa", model_path, act_path, "--witnesses", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["value_direct"] == pytest.approx(doc["value_via_lotteries"], abs=1e-12)
        assert doc["independence_witness_gap"] <= 1e-12


class TestDemos:
    def test_section2_demo(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            ["demo-section2", "--lambda", "1", "--muE", "0.3", "--muF", "0.2",
             "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "additivity" in printed
        doc = json.loads(out.read_text())
        assert abs(doc["additivity_residual"]) <= 1e-12
        assert len(doc["acts"]) == 7

    def test_ellsberg_demo(self, capsys):
        assert main(["demo-ellsberg", "--nu", "0.45"]) == 0
        out = capsys.readouterr().out
        assert "STRICTLY_PREFERS_FIRST" in out
        assert "INDIFFERENT" in out


class TestErrors:
    def test_malformed_json_names_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"lambda": 1.0,\n  broken')
        act = tmp_path / "act.json"
        act.write_text("{}")
        assert main(["eval", str(bad), str(act)]) == 1
        err = capsys.readouterr().err
        assert "bad.json" in err and "line 2" in err

    def test_unknown_subcommand_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_file(self, capsys, act_path):
        assert main(["eval", "/does/not/exist.json", act_path]) == 1

    def test_repeated_act_state_is_an_error(self, tmp_path, capsys, model_path):
        path = tmp_path / "act.json"
        path.write_text(
            '{"states": ["a", "b", "a"], "profiles": {"a": [[0, "inf", "x"]], "b": [[0, "inf", "y"]]}}'
        )
        assert main(["eval", model_path, str(path)]) == 1
        assert "error: act document lists state 'a' twice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            ("eval", "[1, 2]", "an act document must be an object, got an array"),
            (
                "eval",
                '{"states": ["a", "b"], "profiles": {"a": 5, "b": [[0, "inf", "y"]]}}',
                "a profile must be an array, got a number",
            ),
            ("elicit", '"x"', "an oracle document must be an object, got a string"),
            (
                "elicit",
                '{"kind": "seu", "lambda": 1.0, "utility": {"x": 1.0, "y": 0.0}, "mu": [0.5, 0.5]}',
                "'mu' must be an object, got an array",
            ),
        ],
        ids=["act-array", "profile-number", "oracle-string", "mu-array"],
    )
    def test_document_of_the_wrong_json_type_is_an_error(
        self, tmp_path, capsys, model_path, command, doc, message
    ):
        # Each used to end in a TypeError or AttributeError traceback.
        path = tmp_path / "doc.json"
        path.write_text(doc)
        argv = ["eval", model_path, str(path)] if command == "eval" else ["elicit", str(path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("lambda", [1], "expected a number for 'lambda', got [1]"),
            ("band", None, "expected a number for 'band', got None"),
            ("lambda", True, "expected a number for 'lambda', got True"),
            ("lambda", "2", "expected a number for 'lambda', got '2'"),
            ("utility", {"x": True, "y": 0.0}, "expected a number for the utility of 'x', got True"),
            ("mu", {"a": "0.3", "b": 0.7}, "expected a number for the belief in 'a', got '0.3'"),
            ("band_inflation", "0.1", "expected a number for 'band_inflation', got '0.1'"),
        ],
        ids=[
            "lambda-array",
            "band-null",
            "lambda-bool",
            "lambda-string",
            "utility-bool",
            "mu-string",
            "inflation-string",
        ],
    )
    def test_non_number_field_is_an_error(self, tmp_path, capsys, field, value, message):
        # "lambda": [1] and "band": null used to end in a TypeError traceback;
        # true and "2" were read as 1.0 and 2.0.
        doc = {
            "kind": "seu",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 0.0},
            "mu": {"a": 0.3, "b": 0.7},
            field: value,
        }
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(doc))
        assert main(["elicit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_non_number_capacity_weight_is_an_error(self, tmp_path, capsys):
        doc = {
            "kind": "choquet",
            "lambda": 1.0,
            "utility": {"x": 1.0, "y": 0.0},
            "capacity": {"a": 0.4, "b": False},
        }
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(doc))
        assert main(["elicit", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: expected a number for the capacity of 'b', got False\n"

    def test_subset_named_twice_in_a_capacity_is_an_error(self, tmp_path, capsys):
        # It used to keep the last weight, 0.6, for {a, b}.
        capacity = {"a": 0.2, "b": 0.3, "a,b": 0.5, "b,a": 0.6}
        doc = {"kind": "choquet", "lambda": 1.0, "utility": {"x": 1.0, "y": 0.0}, "capacity": capacity}
        path = tmp_path / "oracle.json"
        path.write_text(json.dumps(doc))
        assert main(["elicit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the capacity document names one subset twice, as 'a,b' and 'b,a'\n"

    def test_key_repeated_verbatim_is_an_error(self, tmp_path, capsys):
        # json.loads kept the last weight, 1.0, for {a, b}.
        path = tmp_path / "oracle.json"
        path.write_text(
            '{"kind": "choquet", "lambda": 1.0, "utility": {"x": 1.0, "y": 0.0},'
            ' "capacity": {"a": 0.2, "b": 0.3, "a,b": 0.5, "a,b": 1.0}}'
        )
        assert main(["elicit", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: repeated key 'a,b' in {path}\n"

    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_out_is_an_error(self, tmp_path, capsys, model_path, act_path, where):
        # Both used to end in a traceback after the summary.
        out = tmp_path / "no" / "x.json" if where == "missing-dir" else tmp_path
        assert main(["eval", model_path, act_path, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "value (state-first integration)" in captured.out
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--samples", "-5"], "samples must be >= 0, got -5"),
            (["--horizon-max", "-3"], "horizon_max must be >= 0, got -3"),
            (["--samples", "-5", "--horizon-max", "-3"], "samples must be >= 0, got -5"),
        ],
        ids=["samples", "horizon", "both"],
    )
    def test_negative_audit_count_is_an_error(self, capsys, oracle_path, flags, message):
        # Each used to exit 0, printing PASS checked=-5 and INCONCLUSIVE checked=-3.
        assert main(["audit", oracle_path, *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestByteStability:
    def test_same_inputs_same_bytes(self, tmp_path, model_path, act_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["eval", model_path, act_path, "--out", str(out1)])
        main(["eval", model_path, act_path, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_audit_stable_under_seed(self, tmp_path, oracle_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["audit", oracle_path, "--samples", "30", "--seed", "3", "--out", str(out1)])
        main(["audit", oracle_path, "--samples", "30", "--seed", "3", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
