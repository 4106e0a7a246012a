"""JSON encodings for every document the command line reads or writes.

Unbounded interval ends are spelled ``"inf"``; numbers are emitted at full
round-trip precision.  Documents are rendered with sorted keys and a fixed
indent, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import math
import operator
from typing import Any

from .acts import GridAct, State, StepProfile
from .aa import Lottery, LotteryAct
from .audit import AuditReport, CheckReport
from .bracketing import BracketResult
from .elicitation import ElicitationReport, Section2Trace
from .evaluate import Beliefs, DSEUModel, UtilityModel
from .measure import INF, ExpMeasure, TimeSet
from .oracles import (
    Capacity,
    ChoquetOracle,
    SEUOracle,
    WidenedOracle,
)

INF_SENTINEL = "inf"


def dumps(doc: Any) -> str:
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    ``json`` ignores its C encoder whenever ``indent`` is set, and then spends
    one Python generator step per number of a long profile.  So this renders
    the indentation itself and hands each column of a list of equal-length
    flat rows (profile pieces, time-set intervals) to the C encoder in one
    call; a column of strings only (a profile's outcomes) encodes each
    distinct string once.  Where each row starts with the object the row
    before it ends with (a profile's cut), that object's text is reused, not
    encoded again.
    """
    return _render(doc, "\n") + "\n"


_SCALARS = {str, int, float, bool, type(None)}


def _texts(column: tuple[Any, ...], kinds: set[type] | None = None) -> list[str]:
    """The JSON text of each scalar of ``column``, from one C-encoder call.

    ``kinds`` is the set of the cells' types; when it is ``{str}``, that call
    encodes each distinct string once.  (Equal numbers may differ in text,
    as ``0.0`` and ``-0.0`` do, so a number column is encoded cell by cell.)
    """
    if kinds == {str}:
        distinct = [*dict.fromkeys(column)]
        return [*map(dict(zip(distinct, _texts(distinct))).__getitem__, column)]
    # An encoded scalar never holds a raw line break, so each is one line.
    return json.dumps(column, separators=("\n", ":"))[1:-1].split("\n")


def _render(doc: Any, nl: str) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` with ``nl`` for each line break."""
    inner = nl + "  "
    if type(doc) is dict and doc and set(map(type, doc)) == {str}:
        items = [json.dumps(k) + ": " + _render(v, inner) for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(doc) is list and doc:
        width = len(doc[0]) if type(doc[0]) is list else 0
        if width and set(map(type, doc)) == {list} and set(map(len, doc)) == {width}:
            columns = list(zip(*doc))
            kinds = [set(map(type, column)) for column in columns]
            if all(k <= _SCALARS for k in kinds):
                first, *rest = columns
                texts = [*map(_texts, rest, kinds[1:])]
                if rest and all(map(operator.is_, first[1:], rest[0])):
                    texts.insert(0, [*_texts(first[:1]), *texts[0][:-1]])
                else:
                    texts.insert(0, _texts(first, kinds[0]))
                # Interleave the columns with the text between two cells of a
                # row, and between the last cell of a row and the next row's first.
                cell = inner + "  "
                step = 2 * width
                parts = ["," + cell] * (step * len(doc) - 1)
                parts[step - 1 :: step] = [inner + "]," + inner + "[" + cell] * (len(doc) - 1)
                for j, column in enumerate(texts):
                    parts[2 * j :: step] = column
                return "[" + inner + "[" + cell + "".join(parts) + inner + "]" + nl + "]"
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in doc]) + nl + "]"
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", nl)


def _bound_out(x: float) -> float | str:
    return INF_SENTINEL if math.isinf(x) else x


# The types a number may have in a document (a bool is not a number).
_NUMBERS = {int, float}


def _number(x: Any, expected: str) -> float:
    """``x`` as a float if it is a JSON number; else a ``ValueError`` naming ``expected``."""
    if type(x) in _NUMBERS:
        return float(x)
    raise ValueError(f"expected {expected}, got {x!r}")


def _integer(x: Any, expected: str) -> int:
    """``x`` if it is a JSON integer (not a bool); else a ``ValueError`` naming ``expected``."""
    if type(x) is int:
        return x
    raise ValueError(f"expected {expected}, got {x!r}")


#: The JSON name of each type ``json.loads`` returns.
_JSON_NAMES = {
    dict: "an object", list: "an array", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


def _label(x: Any, what: str) -> str:
    """``x`` if it is a JSON string; else a ``ValueError`` naming ``what`` and ``x``."""
    if type(x) is str:
        return x
    raise ValueError(f"expected a string for {what}, got {x!r}")


def _typed(doc: Any, kind: type, what: str) -> Any:
    """``doc`` if it is a ``kind`` (an object or array); else a ``ValueError`` naming ``what``."""
    if isinstance(doc, kind):
        return doc
    got = _JSON_NAMES.get(type(doc), type(doc).__name__)
    raise ValueError(f"{what} must be {_JSON_NAMES[kind]}, got {got}")


def _bound_in(x: Any) -> float:
    if x == INF_SENTINEL:
        return INF
    return _number(x, f"a number or {INF_SENTINEL!r}")


# -- time sets ---------------------------------------------------------------


def time_set_to_json(ts: TimeSet) -> list[list[float | str]]:
    return [[lo, _bound_out(hi)] for lo, hi in ts]


def time_set_from_json(doc: Any) -> TimeSet:
    """Time set from ``[lo, hi]`` pairs; ``lo`` is a number, ``hi`` one or ``"inf"``."""
    pairs = [_typed(pair, list, "a time set interval") for pair in _typed(doc, list, "a time set")]
    return TimeSet.from_pairs((_number(lo, "a number"), _bound_in(hi)) for lo, hi in pairs)


# -- profiles and acts -------------------------------------------------------


def profile_to_json(p: StepProfile) -> list[list[Any]]:
    """``[lo, hi, outcome]`` rows; each row's ``lo`` is the row before's ``hi`` object."""
    return list(map(list, zip((0.0, *p.cuts), (*p.cuts, INF_SENTINEL), p.outs)))


def profile_from_json(rows: Any) -> StepProfile:
    """Profile from ``[lo, hi, outcome]`` rows, which must tile ``[0, inf)`` in order.

    Every ``lo`` and ``hi`` is an int or a float (not a bool), except that
    the last ``hi`` is ``"inf"``.  The first row starts at 0, each row
    starts where the one before it ends, no row is empty, inverted or NaN,
    and the last row ends at ``"inf"``; anything else raises ``ValueError``,
    as does an outcome that is not a string.
    """
    try:
        los, his, outs = zip(*rows, strict=True)
    except (TypeError, ValueError):
        raise _tiling_error(rows) from None
    cuts = his[:-1]
    if set(map(type, los + cuts)) <= _NUMBERS and (
        his[-1] == INF_SENTINEL or type(his[-1]) is float and his[-1] == INF
    ):
        # Rows that tile [0, inf) have cuts above 0, increasing and finite,
        # which is all that ``StepProfile`` checks of them.  A NaN fails
        # ``lo < hi`` even where ``==`` on tuples meets the same object.
        lo, cuts = tuple(map(float, los)), tuple(map(float, cuts))
        if lo[0] == 0.0 and lo[1:] == cuts and all(map(operator.lt, lo, (*cuts, INF))):
            if set(map(type, outs)) != {str}:
                _label(next(x for x in outs if type(x) is not str), "an outcome")
            return StepProfile._unchecked(cuts, outs)
    raise _tiling_error(rows)


def _tiling_error(rows: Any) -> ValueError:
    """The error for rows that ``profile_from_json`` rejects, worded row by row."""
    for row in _typed(rows, list, "a profile"):
        _typed(row, list, "a profile row")
    bounds = [(_number(lo, "a number"), _bound_in(hi)) for lo, hi, _ in rows]
    end = 0.0
    for lo, hi in bounds:
        if lo != end or not lo < hi:
            return ValueError(f"profile rows must tile [0, inf) in order: [{lo}, {hi}) after {end}")
        end = hi
    return ValueError(f"profile rows must reach {INF_SENTINEL!r}, last ends at {end}")


def act_to_json(act: GridAct) -> dict[str, Any]:
    states = [_state_label(s) for s in act.states]
    return {
        "states": states,
        "profiles": {s: profile_to_json(act.row(s)) for s in states},
    }


def _per_state(doc: dict, key: str, what: str) -> list[tuple[str, Any]]:
    """``(state, entry)`` for each state of ``doc["states"]``, in that order, from ``doc[key]``.

    The table must hold an entry for each listed state and no other, and no
    state may be listed twice.
    """
    states = [
        _state_label(_label(s, "a state")) for s in _typed(doc["states"], list, "the act's states")
    ]
    table = _typed(doc[key], dict, what)
    if len(set(states)) != len(states):
        twice = next(s for i, s in enumerate(states) if s in states[:i])
        raise ValueError(f"act document lists state {twice!r} twice in {states}")
    missing = [s for s in states if s not in table]
    if missing:
        raise ValueError(f"act document misses {key} for states {missing}")
    extra = sorted(set(table) - set(states))
    if extra:
        raise ValueError(f"act document has {key} for unlisted states {extra}")
    return [(s, table[s]) for s in states]


def act_from_json(doc: Any) -> GridAct:
    _typed(doc, dict, "an act document")
    rows = _per_state(doc, "profiles", "the act's profiles")
    return GridAct({s: profile_from_json(row) for s, row in rows})


# -- models ------------------------------------------------------------------


def model_to_json(model: DSEUModel) -> dict[str, Any]:
    return {
        "lambda": model.discount.rate,
        "utility": dict(model.utility.values),
        "mu": {_state_label(s): p for s, p in model.beliefs.probs.items()},
    }


def _rate_from_json(doc: dict) -> ExpMeasure:
    return ExpMeasure(_number(doc["lambda"], "a number for 'lambda'"))


def _utility_from_json(doc: dict) -> UtilityModel:
    utility = _typed(doc["utility"], dict, "'utility'")
    return UtilityModel(
        {str(o): _number(u, f"a number for the utility of {o!r}") for o, u in utility.items()}
    )


def model_from_json(doc: Any) -> DSEUModel:
    _typed(doc, dict, "a model document")
    return DSEUModel(
        _rate_from_json(doc),
        _utility_from_json(doc),
        Beliefs(
            {
                _state_label(str(s)): _number(p, f"a number for the belief in {s!r}")
                for s, p in _typed(doc["mu"], dict, "'mu'").items()
            }
        ),
    )


# -- lotteries ---------------------------------------------------------------


def lottery_act_to_json(act: LotteryAct) -> dict[str, Any]:
    states = [_state_label(s) for s in act.states]
    return {
        "states": states,
        "lotteries": {s: dict(act.at(s).probs) for s in states},
    }


def lottery_act_from_json(doc: Any) -> LotteryAct:
    _typed(doc, dict, "a lottery act document")
    return LotteryAct(
        {
            s: Lottery(
                {
                    str(o): _number(p, f"a number for the probability of {o!r}")
                    for o, p in _typed(lot, dict, "a lottery").items()
                }
            )
            for s, lot in _per_state(doc, "lotteries", "'lotteries'")
        }
    )


# -- state subsets -----------------------------------------------------------


def _state_label(state: State) -> State:
    """``state``, which must be a label that :func:`subset_key` can spell.

    Every reader checks its state labels with it, and every writer before
    it builds a document, so no document is written that a reader rejects.
    """
    if state == "" or "," in state:
        raise ValueError(
            f"state label {state!r} is empty or holds a comma, which subset keys cannot spell"
        )
    return state


def subset_key(subset: frozenset[State]) -> str:
    return ",".join(sorted(map(_state_label, subset)))


def subset_from_key(key: str) -> frozenset[State]:
    return frozenset(part for part in key.split(",") if part)


def _by_subset(doc: dict, what: str) -> dict[frozenset[State], tuple[Any, Any]]:
    """Each entry of ``doc`` as ``subset: (key, value)``; two keys naming one subset raise."""
    entries: dict[frozenset[State], tuple[Any, Any]] = {}
    for key, value in doc.items():
        subset = subset_from_key(str(key))
        if subset in entries:
            raise ValueError(f"{what} names one subset twice, as {entries[subset][0]!r} and {key!r}")
        entries[subset] = key, value
    return entries


# -- oracles -----------------------------------------------------------------


def capacity_from_json(doc: Any) -> Capacity:
    _typed(doc, dict, "'capacity'")
    weights = {
        subset: _number(v, f"a number for the capacity of {k!r}")
        for subset, (k, v) in _by_subset(doc, "the capacity document").items()
    }
    states = sorted(set().union(*weights) if weights else set())
    if not states:
        raise ValueError("capacity document names no states")
    return Capacity(tuple(states), weights)


def oracle_from_json(doc: Any):
    kind = _typed(doc, dict, "an oracle document").get("kind")
    band = _number(doc.get("band", 0.0), "a number for 'band'")
    if kind == "seu":
        oracle = SEUOracle(model_from_json(doc), band)
    elif kind == "choquet":
        oracle = ChoquetOracle(
            _rate_from_json(doc),
            _utility_from_json(doc),
            capacity_from_json(doc["capacity"]),
            band,
        )
    else:
        raise ValueError(f"unknown oracle kind {kind!r}; expected 'seu' or 'choquet'")
    inflation = _number(doc.get("band_inflation", 0.0), "a number for 'band_inflation'")
    # A negative or NaN inflation raises the ValueError of WidenedOracle.
    return WidenedOracle(oracle, inflation)


def oracle_to_json(oracle) -> dict[str, Any]:
    if isinstance(oracle, SEUOracle):
        doc = model_to_json(oracle.model)
        doc.update({"kind": "seu", "band": oracle.band})
        return doc
    if isinstance(oracle, ChoquetOracle):
        # In state order: ``subset_key`` meets each subset's states in set order.
        for s in oracle.capacity.states:
            _state_label(s)
        return {
            "kind": "choquet",
            "lambda": oracle.discount.rate,
            "utility": dict(oracle.utility.values),
            "capacity": {
                subset_key(sub): v for sub, v in oracle.capacity.weights.items()
            },
            "band": oracle.band,
        }
    raise ValueError(f"cannot serialize oracle of type {type(oracle).__name__}")


# -- reports -----------------------------------------------------------------


def elicitation_report_to_json(report: ElicitationReport) -> dict[str, Any]:
    return {
        "lambda_hat": report.lambda_hat,
        "mu_hat": {subset_key(sub): p for sub, p in report.mu_hat.items()},
        "additivity_residuals": [
            {"e": subset_key(e), "f": subset_key(f), "residual": r}
            for (e, f), r in report.additivity_residuals.items()
        ],
        "max_residual": report.max_residual,
        "residual_tolerance": report.residual_tolerance,
        "verdict": report.verdict,
        "query_count": report.query_count,
    }


def elicitation_report_from_json(doc: Any) -> ElicitationReport:
    _typed(doc, dict, "an elicitation report")
    mu_hat = _typed(doc["mu_hat"], dict, "'mu_hat'")
    rows = _typed(doc["additivity_residuals"], list, "'additivity_residuals'")
    for row in rows:
        _typed(row, dict, "a residual")
    return ElicitationReport(
        lambda_hat=_number(doc["lambda_hat"], "a number for 'lambda_hat'"),
        mu_hat={
            subset: _number(p, f"a number for 'mu_hat' of {k!r}")
            for subset, (k, p) in _by_subset(mu_hat, "'mu_hat'").items()
        },
        additivity_residuals={
            (subset_from_key(row["e"]), subset_from_key(row["f"])): _number(
                row["residual"], "a number for a residual"
            )
            for row in rows
        },
        query_count=_integer(doc["query_count"], "an integer for 'query_count'"),
        residual_tolerance=_number(doc["residual_tolerance"], "a number for 'residual_tolerance'"),
    )


def check_report_to_json(report: CheckReport) -> dict[str, Any]:
    return {
        "axiom": report.axiom,
        "checked": report.checked,
        "verdict": report.verdict,
        "note": report.note,
        "data": report.data,
        "violations": [
            {
                "kind": v.kind,
                "note": v.note,
                "queries": [
                    {
                        "first": act_to_json(f),
                        "second": act_to_json(g),
                        "answer": answer.name,
                    }
                    for f, g, answer in v.queries
                ],
            }
            for v in report.violations
        ],
    }


def audit_report_to_json(report: AuditReport) -> dict[str, Any]:
    return {
        "all_pass": report.all_pass,
        "checks": {name: check_report_to_json(c) for name, c in report.checks.items()},
    }


def bracket_to_json(result: BracketResult) -> dict[str, Any]:
    if isinstance(result.lower, StepProfile):
        kind, side, part = "profile", profile_to_json, time_set_to_json
    else:
        kind, side, part = "act", act_to_json, subset_key
    return {
        "kind": kind,
        "lower": side(result.lower),
        "upper": side(result.upper),
        "gap": result.gap,
        "bins": [part(b) for b in result.bins],
    }


def section2_trace_to_json(trace: Section2Trace) -> dict[str, Any]:
    return {
        "lambda": trace.rate,
        "mu_e": trace.mu_e,
        "mu_f": trace.mu_f,
        "times": {
            "t_half": trace.t_half,
            "t_e": _bound_out(trace.t_e),
            "t_f": _bound_out(trace.t_f),
            "t_union": _bound_out(trace.t_union),
            "t_f_prime": trace.t_f_prime,
        },
        "acts": {name: act_to_json(a) for name, a in trace.acts.items()},
        "values": dict(trace.values),
        "indifference_gaps": [
            {"first": a, "second": b, "gap": gap}
            for (a, b), gap in trace.indifference_gaps.items()
        ],
        "identity_residual": trace.identity_residual,
        "mu_hat": dict(trace.mu_hat),
        "additivity_residual": trace.additivity_residual,
    }
