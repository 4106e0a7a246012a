"""Command-line front end over the library, with stable JSON file formats.

Exit codes: 0 on success, 1 on a validation problem (bad JSON, bad values,
bad usage), 2 when an oracle breaks the elicitation protocol.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Any

from . import serialize
from .aa import aa_value, independence_witness, reduce_act
from .acts import GridAct, StepProfile
from .audit import run_audit
from .bracketing import bracket_act, bracket_profile
from .elicitation import run_session, section2_demo
from .equivalents import time_equivalent_act, time_equivalent_bisect
from .evaluate import Beliefs, DSEUModel, UtilityModel
from .measure import ExpMeasure
from .oracles import Capacity, ChoquetOracle, ProtocolError, SEUOracle


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Argparse that reports usage problems as validation errors (exit 1)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object's members as a dict, rejecting a key repeated verbatim."""
    seen: set[str] = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"repeated key {key!r}")
        seen.add(key)
    return dict(pairs)


def _load_json(path: str) -> Any:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON in {path} at line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from exc


def _emit(doc: Any, out: str | None) -> None:
    text = serialize.dumps(doc)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise ValueError(f"cannot write {out}: {exc}") from exc
        print(f"wrote {out}")
    else:
        print(text, end="")


def _render_matrix(act: GridAct) -> str:
    width = max(len(lbl) for lbl in (*act.states, *act.outcomes))
    lines = ["    " + " ".join(s.rjust(width) for s in act.states) + "  | period"]
    cuts = sorted({c for p in act.profiles.values() for c in p.cuts})
    for lo, hi in zip([0.0, *cuts], [*cuts, math.inf]):
        row = " ".join(p.outcome_at(lo).rjust(width) for p in act.profiles.values())
        hi_txt = "inf" if math.isinf(hi) else f"{hi:.6g}"
        lines.append(f"    {row}  | [{lo:.6g}, {hi_txt})")
    return "\n".join(lines)


def cmd_eval(args: argparse.Namespace) -> int:
    model = serialize.model_from_json(_load_json(args.model))
    act = serialize.act_from_json(_load_json(args.act))
    state_first = model.act_value(act)
    time_first = model.act_value_dual(act)
    print(f"value (state-first integration): {state_first!r}")
    print(f"value (time-first integration):  {time_first!r}")
    print(f"integration-order gap:           {abs(state_first - time_first):.3e}")
    _emit(
        {
            "value": state_first,
            "value_state_first": state_first,
            "value_time_first": time_first,
        },
        args.out,
    )
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    act = serialize.act_from_json(_load_json(args.act))
    if args.oracle:
        oracle = serialize.oracle_from_json(_load_json(args.oracle))
        rate = None if args.rate is None else ExpMeasure(args.rate)
        te = time_equivalent_bisect(
            oracle, act, args.upper, args.lower, tol=args.tol, rate=rate
        )
        source = "bisection"
    else:
        if not args.model:
            raise UsageError("equiv needs --model (closed form) or --oracle (bisection)")
        model = serialize.model_from_json(_load_json(args.model))
        te = time_equivalent_act(model, act, args.upper, args.lower)
        source = "closed form"
    if te.is_whole_horizon:
        print(f"time equivalent ({source}): whole horizon (prefix mass -> 1)")
    else:
        print(f"time equivalent ({source}): t = {te.t!r} (bracket {te.bracket_width:.3e})")
    _emit(
        {
            "t": None if te.is_whole_horizon else te.t,
            "whole_horizon": te.is_whole_horizon,
            "bracket_width": te.bracket_width,
            "upper": args.upper,
            "lower": args.lower,
        },
        args.out,
    )
    return 0


def cmd_elicit(args: argparse.Namespace) -> int:
    oracle = serialize.oracle_from_json(_load_json(args.oracle))
    if args.upper and args.lower:
        x, y = args.upper, args.lower
    elif args.upper or args.lower:
        raise UsageError("give both --upper and --lower, or neither")
    else:
        y, x = oracle.utility.anchors()
    report = run_session(oracle, x, y, tol=args.tol)
    print(f"recovered rate:     {report.lambda_hat!r}")
    print(f"events elicited:    {len(report.mu_hat)}")
    print(f"max additivity gap: {report.max_residual:.3e}")
    print(f"queries used:       {report.query_count}")
    print(f"additivity verdict: {report.verdict}")
    _emit(serialize.elicitation_report_to_json(report), args.out)
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    oracle = serialize.oracle_from_json(_load_json(args.oracle))
    report = run_audit(
        oracle, samples=args.samples, seed=args.seed, horizon_max=args.horizon_max
    )
    for name, check in report.checks.items():
        extra = f" ({check.note})" if check.note else ""
        print(f"{name:20s} {check.verdict:12s} checked={check.checked}{extra}")
    print(f"overall: {'PASS' if report.all_pass else 'FAIL'}")
    _emit(serialize.audit_report_to_json(report), args.out)
    return 0


def cmd_bracket(args: argparse.Namespace) -> int:
    model = serialize.model_from_json(_load_json(args.model))
    act = serialize.act_from_json(_load_json(args.act))
    if args.mode == "profile":
        if not act.is_deterministic:
            raise ValueError("profile mode needs a deterministic act")
        result = bracket_profile(model, act.row(act.states[0]), args.bins)
    else:
        result = bracket_act(model, act, args.bins)
    print(f"bins: {args.bins}   gap (rescaled utility): {result.gap!r}")
    print(f"gap bound 1/N:     {1.0 / args.bins!r}")
    _emit(serialize.bracket_to_json(result), args.out)
    return 0


def cmd_aa(args: argparse.Namespace) -> int:
    model = serialize.model_from_json(_load_json(args.model))
    act = serialize.act_from_json(_load_json(args.act))
    reduced = reduce_act(model.discount, act)
    for s in reduced.states:
        print(f"{s}: {dict(reduced.at(s).probs)}")
    doc = serialize.lottery_act_to_json(reduced)
    if args.witnesses:
        direct = model.act_value(act)
        via_lottery = aa_value(model, act)
        t = model.discount.half_life
        lhs, rhs = independence_witness(model.discount, t, reduced, act)
        witness_gap = lhs.distance(rhs)
        print(f"value directly:      {direct!r}")
        print(f"value via lotteries: {via_lottery!r}")
        print(f"independence witness entrywise gap at t=half-life: {witness_gap:.3e}")
        doc = {
            "reduction": doc,
            "value_direct": direct,
            "value_via_lotteries": via_lottery,
            "independence_witness_gap": witness_gap,
        }
    _emit(doc, args.out)
    return 0


def cmd_demo_section2(args: argparse.Namespace) -> int:
    trace = section2_demo(ExpMeasure(args.rate), args.mu_e, args.mu_f)
    print(
        f"rate={trace.rate!r}  mu(E)={trace.mu_e!r}  mu(F)={trace.mu_f!r}\n"
        f"half-life t={trace.t_half!r}\n"
        f"time equivalents: t_E={trace.t_e!r}  t_F={trace.t_f!r}  "
        f"t_EuF={trace.t_union!r}  t'_F={trace.t_f_prime!r}\n"
    )
    for name, act in trace.acts.items():
        print(f"{name}  (value {trace.values[name]!r})")
        print(_render_matrix(act))
        print()
    for (a, b), gap in trace.indifference_gaps.items():
        print(f"indifference {a} ~ {b}: gap {gap:.3e}")
    print(f"additivity identity residual: {trace.identity_residual:.3e}")
    print(
        f"recovered: mu(E)={trace.mu_hat['e']!r} mu(F)={trace.mu_hat['f']!r} "
        f"mu(EuF)={trace.mu_hat['union']!r}"
    )
    print(f"additivity residual <= {abs(trace.additivity_residual):.3e}")
    _emit(serialize.section2_trace_to_json(trace), args.out)
    return 0


def cmd_demo_ellsberg(args: argparse.Namespace) -> int:
    states = ("black", "red")
    utility = UtilityModel({"win": 1.0, "lose": 0.0})
    rate = ExpMeasure(args.rate)
    capacity = Capacity(
        states,
        {
            frozenset(): 0.0,
            frozenset({"red"}): args.nu,
            frozenset({"black"}): args.nu,
            frozenset(states): 1.0,
        },
    )
    ambiguity = ChoquetOracle(rate, utility, capacity)
    neutral = SEUOracle(DSEUModel(rate, utility, Beliefs.uniform(states)))
    bet_red = GridAct.bet(states, {"red"}, "win", "lose")
    bet_black = GridAct.bet(states, {"black"}, "win", "lose")
    stream = GridAct.deterministic(
        states, StepProfile.before_after("win", rate.half_life, "lose")
    )
    rows = []
    for name, act in (("bet on red", bet_red), ("bet on black", bet_black), ("half-life stream", stream)):
        rows.append(
            {
                "act": name,
                "choquet_value": ambiguity.value(act),
                "seu_value": neutral.value(act),
            }
        )
        print(
            f"{name:18s} capacity value {ambiguity.value(act)!r}   "
            f"additive value {neutral.value(act)!r}"
        )
    verdict_amb = ambiguity.compare(stream, bet_red).name
    verdict_seu = neutral.compare(stream, bet_red).name
    print(f"capacity decision maker, stream vs ambiguous bet: {verdict_amb}")
    print(f"additive decision maker, stream vs ambiguous bet: {verdict_seu}")
    _emit(
        {
            "nu": args.nu,
            "rows": rows,
            "capacity_stream_vs_bet": verdict_amb,
            "additive_stream_vs_bet": verdict_seu,
        },
        args.out,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dseu", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("eval", help="value of an act under a model, both integration orders")
    p.add_argument("model")
    p.add_argument("act")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("equiv", help="time equivalent of an act")
    p.add_argument("act")
    p.add_argument("--model", help="model JSON for the closed form")
    p.add_argument("--oracle", help="oracle JSON for bisection")
    p.add_argument("--upper", required=True, help="better reference outcome")
    p.add_argument("--lower", required=True, help="worse reference outcome")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--rate", type=float, help="known rate, for the bisection ceiling")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("elicit", help="recover rate and event probabilities from an oracle")
    p.add_argument("oracle")
    p.add_argument("--upper", help="better bet outcome (default: best by spec utility)")
    p.add_argument("--lower", help="worse bet outcome")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(fn=cmd_elicit)

    p = sub.add_parser("audit", help="run the axiom checks against an oracle")
    p.add_argument("oracle")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--horizon-max", type=int, default=64)
    p.set_defaults(fn=cmd_audit)

    p = sub.add_parser("bracket", help="two-outcome sandwich around a target act")
    p.add_argument("model")
    p.add_argument("act")
    p.add_argument("--bins", "-n", type=int, required=True)
    p.add_argument("--mode", choices=("act", "profile"), default="act")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("aa", help="reduce an act to one lottery per state")
    p.add_argument("model")
    p.add_argument("act")
    p.add_argument("--witnesses", action="store_true", help="also check the value and mixture identities")
    p.set_defaults(fn=cmd_aa)

    p = sub.add_parser("demo-section2", help="worked additivity chain for two disjoint events")
    p.add_argument("--lambda", dest="rate", type=float, default=1.0)
    p.add_argument("--muE", dest="mu_e", type=float, default=0.3)
    p.add_argument("--muF", dest="mu_f", type=float, default=0.2)
    p.set_defaults(fn=cmd_demo_section2)

    p = sub.add_parser("demo-ellsberg", help="two-urn comparison: capacity vs additive beliefs")
    p.add_argument("--lambda", dest="rate", type=float, default=1.0)
    p.add_argument("--nu", type=float, default=0.45)
    p.set_defaults(fn=cmd_demo_ellsberg)
    for p in sub.choices.values():
        p.add_argument("--out")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
