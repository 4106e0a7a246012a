"""JSON encodings for every document the command line reads or writes.

Unbounded interval ends are spelled ``"inf"``; numbers are emitted at full
round-trip precision.  Documents are rendered with sorted keys and a fixed
indent, so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import itertools
import json
import math
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
    the indentation itself and hands each list of flat rows (profile pieces,
    time-set intervals) to the C encoder in one call.
    """
    return _render(doc, "\n") + "\n"


_SCALARS = {str, int, float, bool, type(None)}


def _render(doc: Any, nl: str) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` with ``nl`` for each line break."""
    inner = nl + "  "
    if type(doc) is dict and doc and set(map(type, doc)) == {str}:
        items = [json.dumps(k) + ": " + _render(v, inner) for k, v in sorted(doc.items())]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if type(doc) is list and doc:
        if (
            set(map(type, doc)) == {list}
            and all(doc)
            and set(map(type, itertools.chain.from_iterable(doc))) <= _SCALARS
        ):
            # Rows of scalars: one C call separates every number by ``sep``.
            # A line break never occurs inside an encoded string, and no
            # scalar ends in "]", so "]" + sep + "[" is a row boundary.
            sep = "," + inner + "  "
            rows = json.dumps(doc, separators=(sep, ": "))[2:-2]
            rows = rows.replace("]" + sep + "[", inner + "]," + inner + "[" + inner + "  ")
            return "[" + inner + "[" + inner + "  " + rows + inner + "]" + nl + "]"
        return "[" + inner + ("," + inner).join([_render(x, inner) for x in doc]) + nl + "]"
    return json.dumps(doc, indent=2, sort_keys=True).replace("\n", nl)


def _bound_out(x: float) -> float | str:
    return INF_SENTINEL if math.isinf(x) else x


def _bound_in(x: Any) -> float:
    if x == INF_SENTINEL:
        return INF
    if isinstance(x, (int, float)):
        return float(x)
    raise ValueError(f"expected a number or {INF_SENTINEL!r}, got {x!r}")


# -- time sets ---------------------------------------------------------------


def time_set_to_json(ts: TimeSet) -> list[list[float | str]]:
    return [[iv.lo, _bound_out(iv.hi)] for iv in ts]


def time_set_from_json(doc: Any) -> TimeSet:
    return TimeSet.from_pairs((float(lo), _bound_in(hi)) for lo, hi in doc)


# -- profiles and acts -------------------------------------------------------


def profile_to_json(p: StepProfile) -> list[list[Any]]:
    return [[lo, _bound_out(hi), out] for lo, hi, out in p.segments()]


def profile_from_json(rows: Any) -> StepProfile:
    """Profile from ``[lo, hi, outcome]`` rows, which must tile ``[0, inf)`` in order.

    The first row starts at 0, each row starts where the one before it
    ends, no row is empty, inverted or NaN, and the last row ends at
    ``"inf"``; anything else raises ``ValueError``.
    """
    bounds = [(float(lo), _bound_in(hi)) for lo, hi, _ in rows]
    end = 0.0
    for lo, hi in bounds:
        if lo != end or not lo < hi:
            raise ValueError(f"profile rows must tile [0, inf) in order: [{lo}, {hi}) after {end}")
        end = hi
    if end != INF:
        raise ValueError(f"profile rows must reach {INF_SENTINEL!r}, last ends at {end}")
    return StepProfile(tuple([hi for _, hi in bounds[:-1]]), tuple([str(out) for *_, out in rows]))


def act_to_json(act: GridAct) -> dict[str, Any]:
    return {
        "states": list(act.states),
        "profiles": {s: profile_to_json(act.row(s)) for s in act.states},
    }


def act_from_json(doc: Any) -> GridAct:
    states = [str(s) for s in doc["states"]]
    profiles = doc["profiles"]
    missing = [s for s in states if s not in profiles]
    if missing:
        raise ValueError(f"act document misses profiles for states {missing}")
    extra = sorted(set(profiles) - set(states))
    if extra:
        raise ValueError(f"act document has profiles for unlisted states {extra}")
    return GridAct({s: profile_from_json(profiles[s]) for s in states})


# -- models ------------------------------------------------------------------


def model_to_json(model: DSEUModel) -> dict[str, Any]:
    return {
        "lambda": model.discount.rate,
        "utility": dict(model.utility.values),
        "mu": dict(model.beliefs.probs),
    }


def model_from_json(doc: Any) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(float(doc["lambda"])),
        UtilityModel({str(o): float(u) for o, u in doc["utility"].items()}),
        Beliefs({str(s): float(p) for s, p in doc["mu"].items()}),
    )


# -- lotteries ---------------------------------------------------------------


def lottery_act_to_json(act: LotteryAct) -> dict[str, Any]:
    return {
        "states": list(act.states),
        "lotteries": {s: dict(act.at(s).probs) for s in act.states},
    }


def lottery_act_from_json(doc: Any) -> LotteryAct:
    return LotteryAct(
        {
            str(s): Lottery({str(o): float(p) for o, p in lot.items()})
            for s, lot in doc["lotteries"].items()
        }
    )


# -- state subsets -----------------------------------------------------------


def subset_key(subset: frozenset[State]) -> str:
    return ",".join(sorted(subset))


def subset_from_key(key: str) -> frozenset[State]:
    return frozenset(part for part in key.split(",") if part)


# -- oracles -----------------------------------------------------------------


def capacity_from_json(doc: Any) -> Capacity:
    weights = {subset_from_key(str(k)): float(v) for k, v in doc.items()}
    states = sorted(set().union(*weights) if weights else set())
    if not states:
        raise ValueError("capacity document names no states")
    return Capacity(tuple(states), weights)


def oracle_from_json(doc: Any):
    kind = doc.get("kind")
    band = float(doc.get("band", 0.0))
    if kind == "seu":
        oracle = SEUOracle(model_from_json(doc), band)
    elif kind == "choquet":
        oracle = ChoquetOracle(
            ExpMeasure(float(doc["lambda"])),
            UtilityModel({str(o): float(u) for o, u in doc["utility"].items()}),
            capacity_from_json(doc["capacity"]),
            band,
        )
    else:
        raise ValueError(f"unknown oracle kind {kind!r}; expected 'seu' or 'choquet'")
    inflation = float(doc.get("band_inflation", 0.0))
    if inflation > 0.0:
        return WidenedOracle(oracle, inflation)
    return oracle


def oracle_to_json(oracle) -> dict[str, Any]:
    if isinstance(oracle, WidenedOracle):
        doc = oracle_to_json(oracle.inner)
        doc["band_inflation"] = oracle.extra_band
        return doc
    if isinstance(oracle, SEUOracle):
        doc = model_to_json(oracle.model)
        doc.update({"kind": "seu", "band": oracle.band})
        return doc
    if isinstance(oracle, ChoquetOracle):
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
    return ElicitationReport(
        lambda_hat=float(doc["lambda_hat"]),
        mu_hat={subset_from_key(k): float(p) for k, p in doc["mu_hat"].items()},
        additivity_residuals={
            (subset_from_key(row["e"]), subset_from_key(row["f"])): float(
                row["residual"]
            )
            for row in doc["additivity_residuals"]
        },
        query_count=int(doc["query_count"]),
        residual_tolerance=float(doc["residual_tolerance"]),
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
        return {
            "kind": "profile",
            "lower": profile_to_json(result.lower),
            "upper": profile_to_json(result.upper),
            "gap": result.gap,
            "bins": [time_set_to_json(b) for b in result.bins],
        }
    return {
        "kind": "act",
        "lower": act_to_json(result.lower),
        "upper": act_to_json(result.upper),
        "gap": result.gap,
        "bins": [subset_key(b) for b in result.bins],
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
