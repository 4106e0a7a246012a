"""The benchmark's workloads: raw-input generation, the timed op and its check.

Raw inputs are plain floats, labels and probabilities drawn with stdlib
``random`` from the run's seed.  Nothing here draws through
``dseu.sampling``, so a change to the library cannot change what a workload
asks.  The timed op builds every library object from those raw inputs, and
calls the library through module attributes at call time, so the tracer's
rebound names are the ones called.  Checks run after the op's timer stops
and compare against values the benchmark derives from the raw inputs.

Each workload repeats a fixed cycle of op shapes (state counts, oracle
kinds, size strata).  A run is a whole number of cycles, so every run and
every seed has the same mix, and an audit run's share of indifferent
respondents is exact.  ``pool_cycles`` cycles of raw inputs are generated
up front: 1.6 (``long_acts``, whose inputs are slow to make) to 3 times
as many as a 30-second run of the code this benchmark was written against
reaches on a 2-vCPU Xeon host; a longer or faster run reuses them in
order.  A traced run covers the first ``trace_cycles`` cycles.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from array import array

from dseu import (
    aa,
    acts,
    audit,
    bracketing,
    elicitation,
    equivalents,
    evaluate,
    measure,
    oracles,
    serialize,
)

HIGH, MID, LOW = "high", "mid", "low"
UTILITY = {HIGH: 1.0, MID: 0.4, LOW: 0.0}
OUTCOMES = tuple(UTILITY)
SPAN = max(UTILITY.values()) - min(UTILITY.values())

#: Samples per ``run_audit`` call in the audit workload.
AUDIT_SAMPLES = 50

AUDIT_CHECKS = {
    "stationarity",
    "t_monotonicity",
    "dominance",
    "t_separability",
    "monotone_continuity",
    "decomposition",
    "t_measurability",
}


def _states(n: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(n))


def _probs(rng: random.Random, n: int) -> list[float]:
    weights = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(weights)
    return [w / total for w in weights]


def _time(rate: float, mass: float) -> float:
    """Time whose prefix carries ``mass`` under the exponential measure."""
    return -math.log1p(-mass) / rate


def _model(rate: float, probs: list[float]):
    return evaluate.DSEUModel(
        measure.ExpMeasure(rate),
        evaluate.UtilityModel(UTILITY),
        evaluate.Beliefs(dict(zip(_states(len(probs)), probs))),
    )


def _oracle(kind: str, rate: float, probs: list[float], epsilon: float):
    model = _model(rate, probs)
    if kind == "choquet":
        capacity = oracles.Capacity.epsilon_contamination(model.beliefs, epsilon)
        return oracles.ChoquetOracle(model.discount, model.utility, capacity)
    seu = oracles.SEUOracle(model)
    if kind == "noisy":
        return oracles.WidenedOracle(seu, 0.5 * SPAN)
    if kind == "indifferent":
        # Twice the span: at exactly the span, beliefs summing to 1 + 1 ulp
        # leave high against low strict, and the audit then terminates.
        return oracles.WidenedOracle(seu, 2 * SPAN)
    return seu


class Elicit:
    """One op is one ``run_session`` on a random 4-7 state model.

    Every query values deterministic acts whose rows share one two-piece
    profile, so the work is oracle valuation row by row plus bisection, and
    the query count grows with the 2^n elicited subsets.  Row grouping and
    query savings show here; acts and measure do little.
    """

    name = "elicit"
    # State counts of one cycle; kinds alternate SEU, Choquet.  Cost grows
    # about 2.5x per state, so the mix puts the median inside the 6-state
    # SEU ops and the 90th percentile inside the 7-state Choquet ops rather
    # than on a jump between groups, where it would swing from run to run.
    states = (4, 4, 5, 5, 6, 6, 6, 7, 7, 7)
    cycle = len(states)
    pool_cycles = 90
    trace_cycles = 2
    deadline_s = 30.0

    def generate(self, rng: random.Random, slot: int) -> dict:
        return {
            "kind": "seu" if slot % 2 == 0 else "choquet",
            "rate": rng.uniform(0.3, 3.0),
            "probs": _probs(rng, self.states[slot]),
            "epsilon": rng.uniform(0.05, 0.3),
        }

    def run(self, raw: dict, region, lap):
        oracle = _oracle(raw["kind"], raw["rate"], raw["probs"], raw["epsilon"])
        return elicitation.run_session(oracle, HIGH, LOW)

    def check(self, raw: dict, report, queries: int) -> list[str]:
        problems = []
        if abs(report.lambda_hat / raw["rate"] - 1.0) > 1e-6:
            problems.append(f"rate {report.lambda_hat!r} != {raw['rate']!r}")
        if report.query_count != queries:
            problems.append(f"report counts {report.query_count} queries, asked {queries}")
        states = _states(len(raw["probs"]))
        shrink = 1.0 if raw["kind"] == "seu" else 1.0 - raw["epsilon"]
        for subset, got in report.mu_hat.items():
            want = sum(p for s, p in zip(states, raw["probs"]) if s in subset)
            if 0 < len(subset) < len(states):
                want *= shrink
            if abs(got - want) > 1e-6:
                problems.append(f"mu({sorted(subset)}) = {got!r}, expected {want!r}")
                break
        expected = "PASS" if raw["kind"] == "seu" else "FAIL"
        if report.verdict != expected:
            problems.append(f"verdict {report.verdict}, expected {expected}")
        return problems


class Audit:
    """One op is one ``run_audit(samples=50)`` on 2-4 states.

    Ops cycle through an SEU, a Choquet and a noisy respondent (band widened
    by half the utility span, so only pairs further apart than that stay
    strict), plus one fully indifferent respondent in every 50 ops.  Acts
    are sampled fresh with short distinct rows, so this exercises sampling
    and the splice operators on small profiles with little reuse: it
    bypasses row grouping and the long-act sweep.  The indifferent
    respondent never terminates ``check_t_monotonicity`` at the seed; the
    per-op deadline turns that into one failed op per cycle.
    """

    name = "audit"
    cycle = 50
    pool_cycles = 18
    trace_cycles = 1
    deadline_s = 1.5

    def generate(self, rng: random.Random, slot: int) -> dict:
        if slot == self.cycle - 1:
            kind, n = "indifferent", 3
        else:
            kind, n = ("seu", "choquet", "noisy")[slot % 3], 2 + (slot // 3) % 3
        return {
            "kind": kind,
            "rate": rng.uniform(0.3, 3.0),
            "probs": _probs(rng, n),
            "epsilon": rng.uniform(0.05, 0.3),
            "seed": rng.randrange(2**31),
        }

    def run(self, raw: dict, region, lap):
        oracle = _oracle(raw["kind"], raw["rate"], raw["probs"], raw["epsilon"])
        return oracle, audit.run_audit(oracle, samples=AUDIT_SAMPLES, seed=raw["seed"])

    def check(self, raw: dict, result, queries: int) -> list[str]:
        oracle, report = result
        problems = [
            f"{name}: logged violation does not replay"
            for name, check in report.checks.items()
            for v in check.violations
            if not v.replay(oracle)
        ]
        if raw["kind"] == "seu":
            if set(report.checks) != AUDIT_CHECKS:
                problems.append(f"SEU audit ran {sorted(report.checks)}")
            elif report.checks["decomposition"].data["worst_residual"] > 1e-10:
                problems.append("decomposition residual above 1e-10")
            if not report.all_pass:
                problems.append("SEU oracle failed its audit")
        return problems


class LongActs:
    """One op builds, values, splices, reduces, brackets and serializes two long acts.

    Each of the 3 rows of both acts has 100-1500 pieces, log-uniform.  The
    O(cells x pieces) refinement sweeps (``act_value_dual``, ``splice_event``)
    dominate; construction and valuation of long acts sit side by side.  The
    oracle is asked only the ~33 queries of one bisection, on rows that all
    differ, so row grouping should not move this workload.  An op runs for
    up to half a second, so it calls ``lap()`` between its steps and each
    step is rescaled by the host speed measured next to it (see ``run.py``).
    Piece counts are stratified: op ``j`` of a cycle draws from the ``j``-th
    of fifteen equal log-width strata, so every cycle spans the whole range.
    Strata this narrow (1.2x in piece count) keep the seed from moving the
    percentiles much, and with fifteen the median falls in the middle of the
    8th stratum and the 90th percentile in the middle of the 14th, not on a
    boundary between strata.
    """

    name = "long_acts"
    cycle = 15
    pool_cycles = 19
    trace_cycles = 2
    deadline_s = 30.0
    min_pieces, max_pieces = 100, 1500
    bracket_bins = 16

    def _row(self, rng: random.Random, rate: float, slot: int):
        """Breakpoints and outcomes of one row; neighbouring outcomes differ."""
        lo, hi = math.log(self.min_pieces), math.log(self.max_pieces)
        pieces = round(math.exp(lo + (slot + rng.random()) / self.cycle * (hi - lo)))
        masses = sorted([rng.random() * 0.995 for _ in range(pieces - 1)])
        k = rng.randrange(len(OUTCOMES))
        outs = [OUTCOMES[k]]
        for step in [rng.getrandbits(1) for _ in range(pieces - 1)]:
            k = (k + 1 + step) % len(OUTCOMES)
            outs.append(OUTCOMES[k])
        # Compact storage keeps the pool from dominating the peak RSS metric.
        return array("d", [_time(rate, q) for q in masses]), tuple(outs)

    def generate(self, rng: random.Random, slot: int) -> dict:
        rate = rng.uniform(0.3, 3.0)
        cuts = sorted(rng.uniform(0.0, 0.995) for _ in range(2 * rng.randint(1, 50)))
        return {
            "rate": rate,
            "probs": _probs(rng, 3),
            "f": [self._row(rng, rate, slot) for _ in range(3)],
            "g": [self._row(rng, rate, slot) for _ in range(3)],
            "t": _time(rate, rng.uniform(0.0, 0.9)),
            "event_states": sorted(rng.sample(_states(3), rng.randint(1, 2))),
            "event_times": [
                (_time(rate, a), _time(rate, b)) for a, b in zip(cuts[::2], cuts[1::2]) if a < b
            ],
            "probes": [(rng.randrange(3), _time(rate, rng.uniform(0.0, 0.999))) for _ in range(32)],
        }

    def run(self, raw: dict, region, lap):
        model = _model(raw["rate"], raw["probs"])
        states = model.states

        def build(rows):
            return acts.GridAct(
                {
                    s: acts.StepProfile.from_breakpoints(times, outs).normalized()
                    for s, (times, outs) in zip(states, rows)
                }
            )

        f, g = build(raw["f"]), build(raw["g"])
        out = {"f": f, "value": model.act_value(f)}
        lap()
        out["dual"] = model.act_value_dual(f)
        lap()
        out["decomposition"] = evaluate.decomposition_check(model, f, raw["t"], g)
        event = acts.Event(
            states=frozenset(raw["event_states"]),
            times=measure.TimeSet.from_pairs(raw["event_times"]),
        )
        lap()
        out["spliced"] = acts.splice_event(f, event, g)
        lap()
        out["aa"] = aa.aa_value(model, f)
        out["reduced"] = aa.reduce_act(model.discount, g)
        out["bracket"] = bracketing.bracket_profile(model, f.row(states[0]), self.bracket_bins)
        lap()
        oracle = oracles.SEUOracle(model)
        out["bisected"] = equivalents.time_equivalent_bisect(
            oracle, f, HIGH, LOW, rate=model.discount
        )
        out["closed"] = equivalents.time_equivalent_act(model, f, HIGH, LOW)
        lap()
        with region("serialize.act_roundtrip"):
            doc = serialize.dumps(serialize.act_to_json(f))
            out["back"] = serialize.act_from_json(json.loads(doc))
        return out

    def check(self, raw: dict, out: dict, queries: int) -> list[str]:
        problems = []
        states = _states(3)
        value = out["value"]

        def close(label: str, a: float, b: float, tol: float) -> None:
            if not abs(a - b) <= tol:
                problems.append(f"{label}: {a!r} vs {b!r}")

        close("act_value vs act_value_dual", value, out["dual"], 1e-12)
        close("decomposition", *out["decomposition"], 1e-12)
        close("aa_value vs act_value", out["aa"], value, 1e-12)
        # Expected utility of g, from raw breakpoints and probabilities alone.
        rate = raw["rate"]
        g_value = 0.0
        for p, (times, outs) in zip(raw["probs"], raw["g"]):
            sf = [1.0, *(math.exp(-rate * t) for t in times), 0.0]
            g_value += p * sum(UTILITY[o] * (a - b) for o, a, b in zip(outs, sf, sf[1:]))
        reduced = out["reduced"]
        reduced_value = sum(
            p * sum(q * UTILITY[o] for o, q in reduced.at(s).probs.items())
            for s, p in zip(states, raw["probs"])
        )
        close("reduce_act expected utility", reduced_value, g_value, 1e-12)
        if not out["bracket"].gap <= 1.0 / self.bracket_bins + 1e-12:
            problems.append(f"bracket gap {out['bracket'].gap!r}")
        te_b, te_c = out["bisected"], out["closed"]
        if te_c.t is None or te_b.t is None:
            if te_c.t is not te_b.t:
                problems.append(f"time equivalents {te_b.t!r} vs {te_c.t!r}")
        else:
            close("bisected vs closed-form time equivalent", te_b.t, te_c.t, 1e-9)
        if out["back"] != out["f"]:
            problems.append("JSON round trip changed the act")
        for si, t in raw["probes"]:
            s = states[si]
            inside = s in raw["event_states"] and any(a <= t < b for a, b in raw["event_times"])
            times, outs = raw["f" if inside else "g"][si]
            want = outs[bisect.bisect_right(times, t)]
            got = out["spliced"].at(s, t)
            if got != want:
                problems.append(f"splice_event at ({s}, {t!r}): {got} != {want}")
                break
        return problems


WORKLOADS = {w.name: w for w in (Elicit(), Audit(), LongActs())}


def make_pool(workload, seed: int, lap=lambda: None) -> list[dict]:
    """Raw inputs for ``pool_cycles`` whole cycles, all drawn from ``seed``.

    ``lap`` is called after each cycle, for the set-up timing in ``run.py``.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    pool = []
    for _ in range(workload.pool_cycles):
        pool += [workload.generate(rng, slot) for slot in range(workload.cycle)]
        lap()
    return pool
