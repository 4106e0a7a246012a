"""Finite executable checks of the preference axioms against any oracle.

Each check samples witness configurations, asks the oracle, and logs any
response pattern the axiom forbids.  A violation stores the exact query
sequence with the observed answers, so it replays deterministically against
the same oracle.  The tail-continuity check is a one-sided proxy (it can
certify but never refute), and the measurability axiom is vacuous for a
finite alphabet; both facts are reflected in the verdicts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

from .acts import (
    Event,
    GridAct,
    Outcome,
    State,
    StepProfile,
    _copy_run,
    splice_event,
    splice_time,
)
from .evaluate import Beliefs, DSEUModel
from .measure import INF, TimeSet
from .oracles import Preference
from .sampling import DISJOINT_ATTEMPTS, ActSampler

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

#: Splice-identity residual above which :func:`check_decomposition` logs a violation.
DECOMPOSITION_TOL = 1e-10


@dataclass
class Violation:
    """One forbidden response pattern, with everything needed to replay it."""

    kind: str
    queries: list[tuple[GridAct, GridAct, Preference]]
    note: str = ""

    def replay(self, oracle) -> bool:
        """True when the oracle still answers every logged query the same way."""
        return all(oracle.compare(f, g) is answer for f, g, answer in self.queries)


@dataclass
class CheckReport:
    axiom: str
    checked: int
    violations: list[Violation] = field(default_factory=list)
    verdict: str = PASS
    note: str = ""
    data: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.violations and self.verdict == PASS:
            self.verdict = FAIL


@dataclass
class AuditReport:
    checks: dict[str, CheckReport]

    @property
    def all_pass(self) -> bool:
        return all(c.verdict == PASS for c in self.checks.values())


#: An oracle's answers on constant acts, by ordered outcome pair.
Ranking = dict[tuple[Outcome, Outcome], Preference]


def _outcome_ranking(oracle) -> Ranking:
    """Oracle's ranking of constant acts, queried once per ordered pair.

    :func:`run_audit` asks it once and hands it to each check that reads it
    as the keyword ``ranking``; a check called without it asks the oracle.
    """
    states = tuple(oracle.states)
    ranking: Ranking = {}
    outs = tuple(oracle.outcomes)
    for i, a in enumerate(outs):
        for b in outs[i + 1 :]:
            answer = oracle.compare(
                GridAct.constant(states, a), GridAct.constant(states, b)
            )
            ranking[(a, b)] = answer
            ranking[(b, a)] = answer.flipped
    return ranking


def _strict_pairs(ranking: Ranking, outcomes) -> list[tuple[Outcome, Outcome]]:
    """(better, worse) pairs among ``outcomes`` that the ranking separates strictly."""
    keep = set(outcomes)
    return [
        (a, b)
        for (a, b), answer in ranking.items()
        if answer is Preference.STRICTLY_PREFERS_FIRST and a in keep and b in keep
    ]


def _check_count(name: str, n: int) -> None:
    """Reject a negative sample count or horizon before any query is asked."""
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")


def _ranked(
    oracle, samples: int, seed: int, sampler: ActSampler | None, ranking: Ranking | None
) -> tuple[ActSampler, random.Random, Ranking, bool, str]:
    """Sampler, rng, ranking (asked only when not handed in), strict flag and note of a check.

    A negative ``samples`` raises first.
    """
    _check_count("samples", samples)
    sampler = sampler or ActSampler.for_oracle(oracle)
    rng = random.Random(seed)
    if ranking is None:
        ranking = _outcome_ranking(oracle)
    strict = oracle.band == 0.0
    note = "" if strict else "strict clause skipped inside the indifference band"
    return sampler, rng, ranking, strict, note


def _better_rejected(
    answer: Preference, strict: bool, rejected: str, not_strict: str
) -> str | None:
    """The kind of violation, if any, when the better of two acts gets ``answer``."""
    if answer is Preference.STRICTLY_PREFERS_SECOND:
        return rejected
    if strict and answer is not Preference.STRICTLY_PREFERS_FIRST:
        return not_strict
    return None


def _vacuous(axiom: str) -> CheckReport:
    """Report for a check with no witness: every outcome pair is a tie."""
    return CheckReport(
        axiom=axiom,
        checked=0,
        note="vacuous: the oracle ranks no outcome pair strictly",
    )


def check_stationarity(
    oracle, samples: int, seed: int, sampler: ActSampler | None = None
) -> CheckReport:
    """Delaying both acts behind a shared head must preserve the response."""
    _check_count("samples", samples)
    sampler = sampler or ActSampler.for_oracle(oracle)
    rng = random.Random(seed)
    violations: list[Violation] = []
    for _ in range(samples):
        f, g, h = sampler.act(rng), sampler.act(rng), sampler.act(rng)
        t = sampler.splice_time_point(rng)
        base = oracle.compare(f, g)
        fd, gd = splice_time(h, t, f), splice_time(h, t, g)
        delayed = oracle.compare(fd, gd)
        if delayed is not base:
            violations.append(
                Violation(
                    kind="response flipped under delay",
                    queries=[(f, g, base), (fd, gd, delayed)],
                    note=f"delay t={t!r}",
                )
            )
    return CheckReport(axiom="stationarity", checked=samples, violations=violations)


def _improved_profile(
    profile: StepProfile,
    ranking: Ranking,
    outcomes: tuple[Outcome, ...],
    rng: random.Random,
) -> StepProfile | None:
    """Replace one piece's outcome by a strictly better one, if any exists."""
    upgrades = [
        (i, cand)
        for i, out in enumerate(profile.outs)
        for cand in outcomes
        if cand != out
        and ranking[(cand, out)] is Preference.STRICTLY_PREFERS_FIRST
    ]
    if not upgrades:
        return None
    i, cand = rng.choice(upgrades)
    outs = list(profile.outs)
    outs[i] = cand
    return StepProfile._sorted(profile.cuts, outs)


def check_t_monotonicity(
    oracle,
    samples: int,
    seed: int,
    sampler: ActSampler | None = None,
    *,
    ranking: Ranking | None = None,
) -> CheckReport:
    """Pointwise-better deterministic streams must be weakly (here: strictly) preferred.

    The improvement always sits on a positive-mass piece, so with a zero
    indifference band the strict clause applies; with a positive band only
    the weak clause is enforced.  When the oracle ranks no pair of the
    sampler's outcomes strictly, no stream can be improved and the report is
    vacuous.
    """
    sampler, rng, ranking, strict, note = _ranked(oracle, samples, seed, sampler, ranking)
    if not _strict_pairs(ranking, sampler.outcomes):
        return _vacuous("t_monotonicity")
    states = tuple(oracle.states)
    violations: list[Violation] = []
    done = 0
    while done < samples:
        y = sampler.profile(rng)
        x = _improved_profile(y, ranking, sampler.outcomes, rng)
        if x is None:
            continue
        done += 1
        fx, fy = GridAct.deterministic(states, x), GridAct.deterministic(states, y)
        answer = oracle.compare(fx, fy)
        kind = _better_rejected(
            answer,
            strict,
            "pointwise-better stream rejected",
            "strict improvement on positive mass not strictly preferred",
        )
        if kind:
            violations.append(Violation(kind, [(fx, fy, answer)]))
    return CheckReport(
        axiom="t_monotonicity", checked=samples, violations=violations, note=note
    )


def check_dominance(
    oracle,
    row_model: DSEUModel,
    samples: int,
    seed: int,
    sampler: ActSampler | None = None,
    *,
    ranking: Ranking | None = None,
) -> CheckReport:
    """Statewise-better acts must be preferred; strictly so on believed states.

    Rows are compared through the oracle itself (as deterministic lifts);
    ``row_model`` only supplies the reference beliefs that decide which
    states count as non-null for the strict clause.  The report is vacuous
    when the oracle ranks no pair of the sampler's outcomes strictly.
    """
    sampler, rng, ranking, strict, note = _ranked(oracle, samples, seed, sampler, ranking)
    if not _strict_pairs(ranking, sampler.outcomes):
        return _vacuous("dominance")
    states = tuple(oracle.states)
    violations: list[Violation] = []
    done = 0
    while done < samples:
        g = sampler.act(rng)
        k = rng.randint(1, len(states))
        chosen = rng.sample(states, k)
        rows = {s: g.row(s) for s in states}
        improved: list[State] = []
        for s in chosen:
            better = _improved_profile(g.row(s), ranking, sampler.outcomes, rng)
            if better is not None:
                rows[s] = better
                improved.append(s)
        if not improved:
            continue
        done += 1
        f = GridAct(rows)
        row_queries = []
        premise_ok = True
        strict_row = False
        for s in improved:
            fa = GridAct.deterministic(states, f.row(s))
            fb = GridAct.deterministic(states, g.row(s))
            answer = oracle.compare(fa, fb)
            row_queries.append((fa, fb, answer))
            if answer is Preference.STRICTLY_PREFERS_SECOND:
                premise_ok = False
            if answer is Preference.STRICTLY_PREFERS_FIRST and row_model.beliefs(s) > 0:
                strict_row = True
        if not premise_ok:
            continue
        answer = oracle.compare(f, g)
        kind = _better_rejected(
            answer,
            strict and strict_row,
            "statewise-better act rejected",
            "strictly better row on a believed state, no strict preference",
        )
        if kind:
            violations.append(Violation(kind, [*row_queries, (f, g, answer)]))
    return CheckReport(
        axiom="dominance", checked=samples, violations=violations, note=note
    )


def _swapped_pastes(
    first: TimeSet, second: TimeSet
) -> Callable[[StepProfile, Outcome, Outcome], tuple[StepProfile, StepProfile]]:
    """Builder of the two witnesses on one pair of disjoint time sets.

    The intervals of both sets are sorted once, here.  The returned function
    maps a background stream and an outcome pair ``(better, worse)`` to the
    stream paying ``better`` on ``first`` and ``worse`` on ``second``, and
    the stream paying them the other way round; both pay the background
    elsewhere.  Each is ``acts._paste`` of the background with those
    constant patches, and both come from one walk over the background's
    cuts, whose runs between the patches they share.  The walk's starts
    never decrease (the spans are sorted by start, and each run is copied
    strictly inside ``(at, lo)``), so both are built by
    ``StepProfile._sorted``; two spans that start at one time give a
    zero-width piece, dropped as :meth:`StepProfile.canonical` drops it.
    """
    spans = sorted(
        [
            *zip(first.bounds[::2], first.bounds[1::2], repeat(True)),
            *zip(second.bounds[::2], second.bounds[1::2], repeat(False)),
        ]
    )

    def build(
        background: StepProfile, better: Outcome, worse: Outcome
    ) -> tuple[StepProfile, StepProfile]:
        cuts, src = background.cuts, background.outs
        starts: list[float] = []
        left: list[Outcome] = []
        right: list[Outcome] = []
        at = 0.0
        for lo, hi, on_first in spans:
            if at < lo:
                n = len(left)
                _copy_run(starts, left, cuts, src, at, lo)
                right += left[n:]
            starts.append(lo)
            left.append(better if on_first else worse)
            right.append(worse if on_first else better)
            at = hi
        if at < INF:
            n = len(left)
            _copy_run(starts, left, cuts, src, at, INF)
            right += left[n:]
        del starts[0]
        return StepProfile._sorted(starts, left), StepProfile._sorted(starts, right)

    return build


def check_t_separability(
    oracle,
    samples: int,
    seed: int,
    sampler: ActSampler | None = None,
    *,
    ranking: Ranking | None = None,
) -> CheckReport:
    """Which of two disjoint periods gets the better outcome must be a fixed choice.

    For each sampled disjoint pair of time sets, the direction of preference
    between placing the better outcome on the first set versus the second is
    compared across outcome pairs and backgrounds; any disagreement is a
    violation.  A positive indifference band can blur a strict direction
    into a tie, so in that case only strictly opposite directions count.
    When the sampler finds no disjoint pair, the check stops INCONCLUSIVE.
    """
    sampler, rng, ranking, exact, _ = _ranked(oracle, samples, seed, sampler, ranking)
    states = tuple(oracle.states)
    strict_pairs = _strict_pairs(ranking, oracle.outcomes)
    if not strict_pairs:
        return _vacuous("t_separability")
    violations: list[Violation] = []
    for done in range(samples):
        pair = sampler.disjoint_time_sets(rng)
        if pair is None:
            note = f"no two disjoint time sets in {DISJOINT_ATTEMPTS} sampler draws"
            verdict = FAIL if violations else INCONCLUSIVE
            return CheckReport("t_separability", done, violations, verdict, note)
        paste = _swapped_pastes(*pair)
        combos = []
        n_pairs = min(2, len(strict_pairs))
        for better, worse in rng.sample(strict_pairs, n_pairs):
            for background in (sampler.profile(rng), sampler.profile(rng)):
                left, right = paste(background, better, worse)
                # Canonical rows, lifted as acts._switch_act lifts its row.
                fa = GridAct._unchecked(dict.fromkeys(states, left), left)
                fb = GridAct._unchecked(dict.fromkeys(states, right), right)
                combos.append((fa, fb, oracle.compare(fa, fb)))
        answers = {answer for _, _, answer in combos}
        opposed = (
            Preference.STRICTLY_PREFERS_FIRST in answers
            and Preference.STRICTLY_PREFERS_SECOND in answers
        )
        if opposed or (exact and len(answers) > 1):
            violations.append(
                Violation(
                    "period comparison depends on stakes or background",
                    combos,
                )
            )
    return CheckReport(axiom="t_separability", checked=samples, violations=violations)


def check_monotone_continuity(
    oracle, f: GridAct, g: GridAct, x: Outcome, horizon_max: int
) -> CheckReport:
    """Search the canonical tail family for an index preserving a strict preference.

    Only certifies: if no tail works up to ``horizon_max`` the verdict is
    INCONCLUSIVE, never FAIL, since some other vanishing family might still
    violate the axiom and this proxy checks just one.
    """
    _check_count("horizon_max", horizon_max)
    base = oracle.compare(f, g)
    if base is not Preference.STRICTLY_PREFERS_FIRST:
        raise ValueError(
            f"tail-continuity proxy needs a strict preference, oracle said {base.name}"
        )
    for n in range(1, horizon_max + 1):
        tail = Event.on_times(TimeSet((float(n), INF)))
        patched_f = splice_event(GridAct.constant(f.states, x), tail, f)
        patched_g = splice_event(GridAct.constant(g.states, x), tail, g)
        a1 = oracle.compare(patched_f, g)
        a2 = oracle.compare(f, patched_g)
        if (
            a1 is Preference.STRICTLY_PREFERS_FIRST
            and a2 is Preference.STRICTLY_PREFERS_FIRST
        ):
            return CheckReport(
                axiom="monotone_continuity",
                checked=n,
                verdict=PASS,
                note=f"strict preference survives the tail [{n}, inf)",
                data={"tail_index": n},
            )
    return CheckReport(
        axiom="monotone_continuity",
        checked=horizon_max,
        verdict=INCONCLUSIVE,
        note="no certifying tail index found below the horizon",
    )


def check_decomposition(
    value_fn: Callable[[GridAct], float],
    model: DSEUModel,
    samples: int,
    seed: int,
    sampler: ActSampler | None = None,
) -> CheckReport:
    """Residuals of the splice decomposition identity for a claimed model.

    The left side evaluates the spliced act with ``value_fn``; the right
    side combines the claimed model's prefix integral with the functional's
    own tail value.  Any functional of the discounted-expected-utility form
    satisfies the identity exactly.
    """
    _check_count("samples", samples)
    sampler = sampler or ActSampler(
        model.discount, model.states, model.outcomes
    )
    rng = random.Random(seed)
    violations: list[Violation] = []
    worst = 0.0
    for _ in range(samples):
        h, f = sampler.act(rng), sampler.act(rng)
        t = sampler.splice_time_point(rng)
        lhs = value_fn(splice_time(h, t, f))
        rhs = model.prefix_value(h, t) + model.discount.sf(t) * value_fn(f)
        residual = abs(lhs - rhs)
        worst = max(worst, residual)
        if residual > DECOMPOSITION_TOL:
            violations.append(
                Violation(
                    kind="decomposition identity fails",
                    queries=[],
                    note=f"residual {residual!r} at t={t!r}",
                )
            )
    return CheckReport(
        axiom="decomposition",
        checked=samples,
        violations=violations,
        data={"worst_residual": worst},
    )


def t_measurability_report() -> CheckReport:
    """The measurability axiom is vacuous here: the alphabet is finite."""
    return CheckReport(
        axiom="t_measurability",
        checked=0,
        verdict=PASS,
        note="finite outcome alphabet: every preference cut is a finite union of singletons",
    )


def run_audit(
    oracle,
    samples: int = 500,
    seed: int = 0,
    horizon_max: int = 64,
    sampler: ActSampler | None = None,
) -> AuditReport:
    """All applicable checks on one oracle, under a single seed.

    The dominance check needs reference beliefs to decide which states are
    non-null; an oracle exposing a ``model`` (an expected-utility oracle,
    also behind a :class:`~dseu.oracles.CountingOracle`) supplies its own
    beliefs, any other oracle exposing a utility gets uniform reference
    beliefs.  The decomposition check runs on every oracle with a ``model``.
    The oracle's ranking of the constant acts is asked once and handed to
    every check that reads it.
    """
    _check_count("samples", samples)
    _check_count("horizon_max", horizon_max)
    sampler = sampler or ActSampler.for_oracle(oracle)
    model = row_model = getattr(oracle, "model", None)
    utility = getattr(oracle, "utility", None)
    if model is None and utility is not None:
        row_model = DSEUModel(
            oracle.discount, utility, Beliefs.uniform(tuple(oracle.states))
        )
    checks: dict[str, CheckReport] = {}
    checks["stationarity"] = check_stationarity(oracle, samples, seed, sampler)
    # Asked where check_t_monotonicity asked it, so the queries keep their order.
    ranking = _outcome_ranking(oracle)
    checks["t_monotonicity"] = check_t_monotonicity(
        oracle, samples, seed + 1, sampler, ranking=ranking
    )
    if row_model is not None:
        checks["dominance"] = check_dominance(
            oracle, row_model, samples, seed + 2, sampler, ranking=ranking
        )
    checks["t_separability"] = check_t_separability(
        oracle, samples, seed + 3, sampler, ranking=ranking
    )
    strict = _strict_pairs(ranking, oracle.outcomes)
    if strict:
        best, worst = strict[0]
        states = tuple(oracle.states)
        checks["monotone_continuity"] = check_monotone_continuity(
            oracle,
            GridAct.constant(states, best),
            GridAct.constant(states, worst),
            worst,
            horizon_max,
        )
    if model is not None:
        checks["decomposition"] = check_decomposition(
            oracle.value, model, samples, seed + 4, sampler
        )
    checks["t_measurability"] = t_measurability_report()
    return AuditReport(checks)
