"""Axiom checks: conforming oracles pass, crafted deviants are caught and replay."""

import bisect
import contextlib
import math
import random
import signal
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu import acts, audit, evaluate, oracles
from dseu.acts import GridAct, StepProfile
from dseu.audit import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    check_decomposition,
    check_dominance,
    check_monotone_continuity,
    check_stationarity,
    check_t_monotonicity,
    check_t_separability,
    run_audit,
    t_measurability_report,
)
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeInterval, TimeSet
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    Preference,
    SEUOracle,
    WidenedOracle,
)
from dseu.sampling import DISJOINT_ATTEMPTS, ActSampler

import test_acts
from refinement import refine

STATES = ("s0", "s1", "s2")
UTIL = {"a": 0.0, "b": 1.0, "c": 0.4}


def seu_model(rate=1.0, probs=(0.5, 0.3, 0.2), util=None) -> DSEUModel:
    return DSEUModel(
        ExpMeasure(rate),
        UtilityModel(dict(util or UTIL)),
        Beliefs(dict(zip(STATES, probs))),
    )


def clipped_row_value(model: DSEUModel, row: StepProfile, lo: float, hi: float) -> float:
    total = 0.0
    for p_lo, p_hi, out in row.segments():
        a, b = max(p_lo, lo), min(p_hi, hi)
        if a < b:
            total += model.discount.interval_mass(TimeInterval(a, b)) * model.utility(out)
    return total


class TestConformingOracle:
    def test_stationarity_passes(self):
        oracle = SEUOracle(seu_model())
        report = check_stationarity(oracle, samples=200, seed=1)
        assert report.verdict == PASS
        assert report.checked == 200

    def test_t_monotonicity_passes(self):
        oracle = SEUOracle(seu_model())
        assert check_t_monotonicity(oracle, samples=200, seed=2).verdict == PASS

    def test_dominance_passes(self):
        model = seu_model()
        oracle = SEUOracle(model)
        assert check_dominance(oracle, model, samples=200, seed=3).verdict == PASS

    def test_t_separability_passes(self):
        oracle = SEUOracle(seu_model())
        assert check_t_separability(oracle, samples=200, seed=4).verdict == PASS

    def test_decomposition_passes(self):
        model = seu_model()
        oracle = SEUOracle(model)
        report = check_decomposition(oracle.value, model, samples=200, seed=5)
        assert report.verdict == PASS
        assert report.data["worst_residual"] <= 1e-12

    def test_run_audit_all_pass(self):
        oracle = SEUOracle(seu_model())
        report = run_audit(oracle, samples=100, seed=6)
        assert report.all_pass
        assert set(report.checks) >= {
            "stationarity",
            "dominance",
            "t_monotonicity",
            "t_separability",
            "monotone_continuity",
            "decomposition",
            "t_measurability",
        }


class TestStationarityDeviant:
    def test_squared_value_with_mixed_signs_fails(self):
        model = seu_model(util={"a": -1.0, "b": 1.0, "c": 0.5})
        oracle = FunctionalOracle(
            fn=lambda act: model.act_value(act) ** 2,
            states=STATES,
            outcomes=tuple(model.outcomes),
            discount=model.discount,
        )
        report = check_stationarity(oracle, samples=300, seed=7)
        assert report.verdict == FAIL
        assert report.violations
        for violation in report.violations[:5]:
            assert violation.replay(oracle)

    def test_zero_delay_stays_consistent(self):
        model = seu_model(util={"a": -1.0, "b": 1.0, "c": 0.5})
        oracle = FunctionalOracle(
            fn=lambda act: model.act_value(act) ** 2,
            states=STATES,
            outcomes=tuple(model.outcomes),
            discount=model.discount,
        )
        sampler = ActSampler(model.discount, STATES, tuple(model.outcomes))
        rng = random.Random(8)
        from dseu.acts import splice_time

        for _ in range(50):
            f, g, h = sampler.act(rng), sampler.act(rng), sampler.act(rng)
            assert oracle.compare(f, g) is oracle.compare(
                splice_time(h, 0.0, f), splice_time(h, 0.0, g)
            )


class TestDominanceDeviant:
    def test_capacity_ignoring_a_state_fails_strict_clause(self):
        model = seu_model(probs=(0.5, 0.5, 0.0), util={"a": 0.0, "b": 1.0})
        states = ("s0", "s1")
        cap = Capacity(
            states,
            {
                frozenset(): 0.0,
                frozenset({"s0"}): 1.0,
                frozenset({"s1"}): 0.0,
                frozenset(states): 1.0,
            },
        )
        oracle = ChoquetOracle(model.discount, UtilityModel({"a": 0.0, "b": 1.0}), cap)
        row_model = DSEUModel(
            model.discount,
            UtilityModel({"a": 0.0, "b": 1.0}),
            Beliefs({"s0": 0.5, "s1": 0.5}),
        )
        report = check_dominance(oracle, row_model, samples=200, seed=9)
        assert report.verdict == FAIL
        assert any("strict" in v.kind for v in report.violations)
        for violation in report.violations[:5]:
            assert violation.replay(oracle)


class TestLocallyReversedOutcome:
    """SEU with the top outcome's utility negated on ``[1, 2)`` only.

    Constants keep their ranking (``high`` is worth 0.535 against ``mid``'s
    0.4), but upgrading a piece to ``high`` across ``[1, 2)`` can lower a
    stream's value.
    """

    MODEL = DSEUModel(
        ExpMeasure(1.0),
        UtilityModel({"high": 1.0, "mid": 0.4, "low": 0.0}),
        Beliefs(dict(zip(STATES, (0.5, 0.3, 0.2)))),
    )
    HIGH = DSEUModel(
        ExpMeasure(1.0), UtilityModel({"high": 1.0, "mid": 0.0, "low": 0.0}), MODEL.beliefs
    )

    def oracle(self):
        model, high = self.MODEL, self.HIGH

        def value(act):
            reversed_high = sum(
                high.beliefs(s) * clipped_row_value(high, act.row(s), 1.0, 2.0)
                for s in act.states
            )
            return model.act_value(act) - 2.0 * reversed_high

        return FunctionalOracle(
            fn=value, states=STATES, outcomes=("high", "mid", "low"), discount=model.discount
        )

    def test_pointwise_better_streams_rejected(self):
        oracle = self.oracle()
        report = check_t_monotonicity(oracle, samples=200, seed=0)
        assert report.verdict == FAIL
        assert report.violations
        assert {v.kind for v in report.violations} == {"pointwise-better stream rejected"}
        for violation in report.violations:
            assert violation.replay(oracle)

    def test_rejected_row_premise_skips_the_sample(self):
        # Rows are valued state by state, so a statewise-better act is never
        # rejected; the samples whose row premise fails are skipped.
        oracle = self.oracle()
        counting = CountingOracle(oracle, keep_log=True)
        ranking = audit._outcome_ranking(oracle)
        report = check_dominance(counting, self.MODEL, samples=200, seed=0, ranking=ranking)
        assert report.verdict == PASS
        rejected_rows = [
            (fa, fb)
            for fa, fb, answer in counting.log
            if answer is Preference.STRICTLY_PREFERS_SECOND and fa.common_row is not None
        ]
        assert rejected_rows


class TestSeparabilityDeviant:
    def test_prefix_tail_interaction_fails(self):
        # Non-separable time functional: value couples the stream before and
        # after t=1 through a product term, so which period gets the better
        # outcome starts depending on the background.
        model = seu_model()

        def coupled(act: GridAct) -> float:
            total = 0.0
            for s in act.states:
                row = act.row(s)
                head = clipped_row_value(model, row, 0.0, 1.0)
                tail = clipped_row_value(model, row, 1.0, math.inf)
                total += model.beliefs(s) * (head + tail + 0.8 * head * tail)
            return total

        oracle = FunctionalOracle(
            fn=coupled,
            states=STATES,
            outcomes=tuple(model.outcomes),
            discount=model.discount,
        )
        report = check_t_separability(oracle, samples=300, seed=10)
        assert report.verdict == FAIL
        for violation in report.violations[:5]:
            assert violation.replay(oracle)


class TestMonotoneContinuity:
    def test_tail_index_within_theory_bound(self):
        for rate, gap in ((1.0, 0.5), (0.5, 0.2), (2.0, 0.05)):
            model = seu_model(rate=rate, util={"a": 0.0, "b": 1.0})
            oracle = SEUOracle(model)
            f = GridAct.constant(STATES, "b")
            # a bet with value 1 - gap
            g = GridAct.stochastic({"s0": "a", "s1": "a", "s2": "a"})
            lower = StepProfile.before_after("b", model.discount.quantile(1.0 - gap), "a")
            g = GridAct.deterministic(STATES, lower)
            report = check_monotone_continuity(oracle, f, g, "a", horizon_max=64)
            assert report.verdict == PASS
            bound = math.ceil(math.log(1.0 / gap) / rate) + 1
            assert report.data["tail_index"] <= bound

    def test_indifferent_pair_rejected(self):
        oracle = SEUOracle(seu_model())
        f = GridAct.constant(STATES, "b")
        with pytest.raises(ValueError):
            check_monotone_continuity(oracle, f, f, "a", horizon_max=4)

    def test_zero_horizon_inconclusive(self):
        oracle = SEUOracle(seu_model())
        f = GridAct.constant(STATES, "b")
        g = GridAct.constant(STATES, "a")
        report = check_monotone_continuity(oracle, f, g, "a", horizon_max=0)
        assert report.verdict == INCONCLUSIVE


class TestDecompositionDeviant:
    def test_choquet_functional_fails(self):
        model = seu_model(probs=(0.45, 0.45, 0.1))
        cap = Capacity.epsilon_contamination(model.beliefs, 0.2)
        oracle = ChoquetOracle(model.discount, model.utility, cap)
        report = check_decomposition(oracle.value, model, samples=100, seed=11)
        assert report.verdict == FAIL
        assert report.data["worst_residual"] > 1e-6

    def test_zero_offset_always_exact(self):
        model = seu_model()
        cap = Capacity.epsilon_contamination(model.beliefs, 0.2)
        oracle = ChoquetOracle(model.discount, model.utility, cap)
        sampler = ActSampler(model.discount, STATES, tuple(model.outcomes))
        rng = random.Random(12)
        from dseu.acts import splice_time

        for _ in range(50):
            h, f = sampler.act(rng), sampler.act(rng)
            lhs = oracle.value(splice_time(h, 0.0, f))
            rhs = model.prefix_value(h, 0.0) + oracle.value(f)
            assert abs(lhs - rhs) <= 1e-12


class TestReportMechanics:
    def test_fixed_seed_reproduces_reports(self):
        model = seu_model(util={"a": -1.0, "b": 1.0, "c": 0.5})
        oracle = FunctionalOracle(
            fn=lambda act: model.act_value(act) ** 2,
            states=STATES,
            outcomes=tuple(model.outcomes),
            discount=model.discount,
        )
        r1 = check_stationarity(oracle, samples=100, seed=13)
        r2 = check_stationarity(oracle, samples=100, seed=13)
        assert r1 == r2

    def test_measurability_note(self):
        report = t_measurability_report()
        assert report.verdict == PASS
        assert "finite" in report.note

    @pytest.mark.parametrize(
        "check",
        [
            lambda o, m, n: check_stationarity(o, n, 0),
            lambda o, m, n: check_t_monotonicity(o, n, 0),
            lambda o, m, n: check_dominance(o, m, n, 0),
            lambda o, m, n: check_t_separability(o, n, 0),
            lambda o, m, n: check_decomposition(o.value, m, n, 0),
            lambda o, m, n: run_audit(o, samples=n),
        ],
        ids=[
            "stationarity",
            "t_monotonicity",
            "dominance",
            "t_separability",
            "decomposition",
            "audit",
        ],
    )
    def test_negative_samples_raise_before_any_query(self, check):
        model = seu_model()
        counted = CountingOracle(SEUOracle(model))
        with pytest.raises(ValueError, match="samples must be >= 0, got -5"):
            check(counted, model, -5)
        assert counted.count == 0

    def test_negative_horizon_raises_before_any_query(self):
        model = seu_model()
        counted = CountingOracle(SEUOracle(model))
        best, worst = GridAct.constant(STATES, "b"), GridAct.constant(STATES, "a")
        with pytest.raises(ValueError, match="horizon_max must be >= 0, got -3"):
            check_monotone_continuity(counted, best, worst, "a", -3)
        with pytest.raises(ValueError, match="horizon_max must be >= 0, got -3"):
            run_audit(counted, samples=5, horizon_max=-3)
        assert counted.count == 0

    def test_zero_samples_stay_legal(self):
        report = run_audit(SEUOracle(seu_model()), samples=0, horizon_max=0)
        assert report.checks["stationarity"].checked == 0
        assert report.checks["monotone_continuity"].verdict == INCONCLUSIVE


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail with TimeoutError instead of hanging when the body overruns."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


VACUOUS = "vacuous: the oracle ranks no outcome pair strictly"


class TestIndifferentOracle:
    """Checks that need a strictly ranked pair end at once when there is none."""

    def test_constant_functional_is_vacuous(self):
        model = seu_model()
        oracle = FunctionalOracle(
            fn=lambda act: 0.0, states=STATES, outcomes=tuple(model.outcomes)
        )
        sampler = ActSampler(model.discount, STATES, tuple(model.outcomes))
        with deadline(3.0):
            reports = [
                check_t_monotonicity(oracle, samples=20, seed=0, sampler=sampler),
                check_dominance(oracle, model, samples=20, seed=0, sampler=sampler),
                check_t_separability(oracle, samples=20, seed=0, sampler=sampler),
            ]
        for report in reports:
            assert (report.checked, report.verdict, report.note) == (0, PASS, VACUOUS)

    def test_run_audit_on_band_wider_than_the_utility_span(self):
        model = seu_model()
        oracle = WidenedOracle(SEUOracle(model), 2 * model.utility.span)
        with deadline(3.0):
            report = run_audit(oracle, samples=50, seed=3)
        assert report.all_pass
        for name in ("t_monotonicity", "dominance", "t_separability"):
            assert report.checks[name].checked == 0
            assert report.checks[name].note == VACUOUS
        assert "monotone_continuity" not in report.checks


class TestWrappedAndDegenerateInputs:
    @pytest.mark.parametrize("wrap", ["counting", "widened"])
    @pytest.mark.parametrize("kind", ["seu", "choquet"])
    @pytest.mark.parametrize("probs", [(0.5, 0.3, 0.2), (0.7, 0.3, 0.0)])
    def test_counting_wrapper_audits_like_the_oracle_it_wraps(self, wrap, kind, probs):
        # A null state (the second beliefs) is what uniform reference beliefs get wrong.
        model = seu_model(probs=probs)
        if kind == "seu":
            oracle = SEUOracle(model)
        else:
            cap = Capacity.epsilon_contamination(model.beliefs, 0.2)
            oracle = ChoquetOracle(model.discount, model.utility, cap)
        wrapped = CountingOracle(oracle) if wrap == "counting" else WidenedOracle(oracle, 0.0)
        report = run_audit(wrapped, samples=20, seed=5)
        assert report == run_audit(oracle, samples=20, seed=5)
        assert "dominance" in report.checks
        assert ("decomposition" in report.checks) == (kind == "seu")
        if kind == "seu":
            assert report.all_pass
        if wrap == "counting":
            assert wrapped.count > 0

    def test_widened_oracle_audits_like_the_oracle_with_the_wider_band(self):
        model = seu_model(probs=(0.7, 0.3, 0.0))
        widened = run_audit(WidenedOracle(SEUOracle(model), 0.01), samples=20, seed=5)
        assert widened == run_audit(SEUOracle(model, band=0.01), samples=20, seed=5)
        assert widened.checks["dominance"].verdict == PASS
        assert "decomposition" in widened.checks

    @pytest.mark.parametrize("kind", ["seu", "choquet", "noisy"])
    def test_run_audit_asks_the_outcome_ranking_once(self, kind, monkeypatch):
        model = seu_model()
        cap = Capacity.epsilon_contamination(model.beliefs, 0.2)
        oracle = {
            "seu": SEUOracle(model),
            "choquet": ChoquetOracle(model.discount, model.utility, cap),
            "noisy": WidenedOracle(SEUOracle(model), 0.5),
        }[kind]
        sampler = ActSampler.for_oracle(oracle)
        # Each check on its own asks the oracle for the ranking itself.
        alone = {
            "stationarity": check_stationarity(oracle, 20, 5, sampler),
            "t_monotonicity": check_t_monotonicity(oracle, 20, 6, sampler),
            "dominance": check_dominance(
                oracle, DSEUModel(model.discount, model.utility, Beliefs.uniform(STATES)),
                20, 7, sampler,
            ),
            "t_separability": check_t_separability(oracle, 20, 8, sampler),
        }
        if kind == "seu":
            alone["dominance"] = check_dominance(oracle, model, 20, 7, sampler)
        rankings = []
        ranking = audit._outcome_ranking
        monkeypatch.setattr(
            audit, "_outcome_ranking", lambda o: rankings.append(o) or ranking(o)
        )
        counted = CountingOracle(oracle)
        report = run_audit(counted, samples=20, seed=5, sampler=sampler)
        assert rankings == [counted]
        for name, check in alone.items():
            assert repr(report.checks[name]) == repr(check)
        # Handed the ranking, a check asks one query less per outcome pair.
        asked, handed = CountingOracle(oracle), CountingOracle(oracle)
        check_t_separability(asked, 20, 8, sampler)
        check_t_separability(handed, 20, 8, sampler, ranking=ranking(oracle))
        assert asked.count - handed.count == 3

    @pytest.mark.parametrize("ceiling", [0.0, 5e-324])
    def test_t_separability_ends_when_no_disjoint_sets_exist(self, ceiling):
        model = seu_model()
        sampler = ActSampler(
            model.discount, model.states, model.outcomes, mass_ceiling=ceiling
        )
        with deadline(3.0):
            report = check_t_separability(SEUOracle(model), 3, 0, sampler)
        assert (report.checked, report.verdict) == (0, INCONCLUSIVE)
        assert "disjoint time sets" in report.note


class TestSamplerArguments:
    @pytest.mark.parametrize("ceiling", [-0.5, math.nan, 1.5, math.inf])
    def test_mass_ceiling_outside_the_unit_interval_is_rejected(self, ceiling):
        model = seu_model()
        with pytest.raises(ValueError, match="mass_ceiling"):
            ActSampler(model.discount, STATES, model.outcomes, mass_ceiling=ceiling)

    def test_oracle_without_a_discount_measure_is_rejected(self):
        oracle = FunctionalOracle(lambda f: 0.0, states=STATES, outcomes=("a", "b"))
        with pytest.raises(ValueError, match="^oracle exposes no discount measure"):
            ActSampler.for_oracle(oracle)

    def test_no_pieces_is_rejected(self):
        model = seu_model()
        with pytest.raises(ValueError, match="max_pieces"):
            ActSampler(model.discount, STATES, model.outcomes, max_pieces=0)

    @pytest.mark.parametrize("samples", [0, 5])
    @pytest.mark.parametrize("check", ["t_monotonicity", "dominance", "t_separability"])
    def test_an_outcome_the_oracle_does_not_rank_is_named(self, check, samples):
        model = DSEUModel(
            ExpMeasure(1.0), UtilityModel(dict(UTIL)), Beliefs({"s0": 0.6, "s1": 0.4})
        )
        oracle = SEUOracle(model)
        # The first outcome the oracle does not rank, in sampler order, is z.
        sampler = ActSampler(model.discount, model.states, ("a", "b", "z", "c", "y"))
        run = {
            "t_monotonicity": lambda: check_t_monotonicity(oracle, samples, 0, sampler),
            "dominance": lambda: check_dominance(oracle, model, samples, 0, sampler),
            "t_separability": lambda: check_t_separability(oracle, samples, 0, sampler),
        }[check]
        message = r"^sampler outcome 'z' is not one the oracle ranks: \['a', 'b', 'c'\]$"
        with pytest.raises(ValueError, match=message):
            run()

    def test_an_oracle_that_ranks_no_pair_strictly_stays_vacuous(self):
        model = seu_model()
        oracle = FunctionalOracle(fn=lambda act: 0.0, states=STATES, outcomes=())
        sampler = ActSampler(model.discount, STATES, ("a", "z"))
        reports = [
            check_t_monotonicity(oracle, samples=5, seed=0, sampler=sampler),
            check_dominance(oracle, model, samples=5, seed=0, sampler=sampler),
            check_t_separability(oracle, samples=5, seed=0, sampler=sampler),
        ]
        for report in reports:
            assert (report.checked, report.verdict, report.note) == (0, PASS, VACUOUS)

    @pytest.mark.parametrize("ceiling", [0.0, 5e-324, 0.5, 0.995, 1.0])
    def test_breakpoints_are_the_quantiles_of_the_draws(self, ceiling):
        for rate in (0.01, 1.0, 7.5):
            measure = ExpMeasure(rate)
            sampler = ActSampler(measure, STATES, ("a", "b"), mass_ceiling=ceiling)
            rng, ref = random.Random(rate), random.Random(rate)
            for count in range(8):
                qs = sorted(ref.uniform(0.0, ceiling) for _ in range(count))
                want = [measure.quantile(q).hex() for q in qs]
                assert [t.hex() for t in sampler.breakpoints(rng, count)] == want


class RandomOnly(random.Random):
    """Overrides ``random()`` alone, so CPython gives it ``_randbelow_without_getrandbits``."""

    def random(self):
        return super().random()


class XorBits(random.Random):
    """Overrides ``getrandbits`` alone, so CPython gives it ``_randbelow_with_getrandbits``.

    Its bits are the base bits XOR a fixed mask, so a draw that reads the
    base class's ``getrandbits`` instead of the rng's own gives other integers.
    """

    def getrandbits(self, k):
        return super().getrandbits(k) ^ (0x5555_5555_5555_5555 & ((1 << k) - 1))


RNG_KINDS = (random.Random, RandomOnly, XorBits)


def draws_profile(sampler, rng, pieces=None):
    """``ActSampler.profile`` through ``randint``, ``uniform`` and ``choice``."""
    if pieces is None:
        pieces = rng.randint(1, sampler.max_pieces)
    qs = sorted(rng.uniform(0.0, sampler.mass_ceiling) for _ in range(pieces - 1))
    cuts = [-math.log1p(-q) / sampler.measure.rate for q in qs]
    outs = [rng.choice(sampler.outcomes) for _ in range(pieces)]
    return StepProfile.canonical(cuts, outs)


def draws_disjoint_time_sets(sampler, rng):
    """``ActSampler.disjoint_time_sets`` through ``randint`` and ``uniform``."""
    for _ in range(DISJOINT_ATTEMPTS):
        count = rng.randint(2, 6) * 2
        qs = sorted(rng.uniform(0.0, sampler.mass_ceiling) for _ in range(count))
        cuts = sorted({sampler.measure.quantile(q) for q in qs})
        if len(cuts) >= 4:
            pairs = [cuts[k : k + 2] for k in range(0, len(cuts) - 1, 2)]
            return tuple(
                TimeSet(tuple(c for pair in pairs[j::2] for c in pair)) for j in (0, 1)
            )
    return None


def ranked_check_draws(check, oracle, sampler, ranking, samples, seed):
    """The rng state after the draws of a ranked check, via ``randint``, ``sample``, ``choice``."""
    rng = random.Random(seed)
    states = tuple(oracle.states)
    strict = audit._strict_pairs(ranking, oracle.outcomes)
    done = 0
    while done < samples:
        if check == "t_separability":
            if draws_disjoint_time_sets(sampler, rng) is None:
                break
            for _ in rng.sample(strict, min(2, len(strict))):
                draws_profile(sampler, rng), draws_profile(sampler, rng)
            done += 1
        elif check == "t_monotonicity":
            y = draws_profile(sampler, rng)
            done += ref_improved_profile(y, ranking, sampler.outcomes, rng) is not None
        else:
            g = {s: draws_profile(sampler, rng) for s in sampler.states}
            chosen = rng.sample(states, rng.randint(1, len(states)))
            rows = [ref_improved_profile(g[s], ranking, sampler.outcomes, rng) for s in chosen]
            done += any(row is not None for row in rows)
    return rng.getstate()


def hex_rows(act):
    return {s: ([c.hex() for c in row.cuts], row.outs) for s, row in act.profiles.items()}


def hex_bounds(pair):
    return None if pair is None else [[c.hex() for c in ts.bounds] for ts in pair]


SAMPLERS = st.builds(
    ActSampler,
    st.sampled_from((0.01, 1.0, 7.5)).map(ExpMeasure),
    st.lists(st.sampled_from(STATES), min_size=1, max_size=4).map(tuple),
    st.integers(1, 5).map(lambda n: tuple(f"o{k}" for k in range(n))),
    st.integers(1, 9),
    st.sampled_from((0.0, 5e-324, 0.5, 0.995, 1.0)),
)


class TestSamplerStream:
    @pytest.mark.identity
    @given(
        st.sampled_from(RNG_KINDS),
        st.integers(0, 2**32),
        st.sampled_from((0.01, 1.0, 7.5)),
        st.integers(1, 9),
        st.integers(1, 5),
        st.sampled_from((0.0, 5e-324, 0.5, 0.995, 1.0)),
        st.lists(st.none() | st.integers(1, 9), min_size=1, max_size=6),
    )
    @settings(deadline=None)
    def test_profile_draws_what_randint_uniform_and_choice_draw(
        self, kind, seed, rate, max_pieces, n_outcomes, ceiling, pieces
    ):
        outcomes = tuple(f"o{k}" for k in range(n_outcomes))
        sampler = ActSampler(ExpMeasure(rate), STATES, outcomes, max_pieces, ceiling)
        rng, ref = kind(seed), kind(seed)
        for n in pieces:
            got, want = sampler.profile(rng, n), draws_profile(sampler, ref, n)
            assert [c.hex() for c in got.cuts] == [c.hex() for c in want.cuts]
            assert got.outs == want.outs
            assert rng.getstate() == ref.getstate()

    @pytest.mark.identity
    @given(st.sampled_from(RNG_KINDS), st.integers(0, 2**32), SAMPLERS, st.integers(1, 4))
    @settings(deadline=None)
    def test_act_draws_one_reference_profile_per_state(self, kind, seed, sampler, acts):
        rng, ref = kind(seed), kind(seed)
        for _ in range(acts):
            got = sampler.act(rng)
            want = GridAct({s: draws_profile(sampler, ref) for s in sampler.states})
            assert hex_rows(got) == hex_rows(want)
            assert rng.getstate() == ref.getstate()

    @pytest.mark.identity
    @given(
        st.sampled_from(RNG_KINDS),
        st.integers(0, 2**32),
        st.sampled_from((0.01, 1.0, 7.5)),
        # At 0 every attempt gives one cut, and the draw gives up.
        st.sampled_from((0.0, 0.5, 0.995, 1.0)),
        st.integers(1, 3),
    )
    @settings(deadline=None)
    def test_disjoint_time_sets_draw_what_randint_and_uniform_draw(
        self, kind, seed, rate, ceiling, n
    ):
        sampler = ActSampler(ExpMeasure(rate), STATES, ("a", "b"), mass_ceiling=ceiling)
        rng, ref = kind(seed), kind(seed)
        for _ in range(n):
            got = sampler.disjoint_time_sets(rng)
            assert hex_bounds(got) == hex_bounds(draws_disjoint_time_sets(sampler, ref))
            assert rng.getstate() == ref.getstate()

    @pytest.mark.identity
    @pytest.mark.parametrize("check", ["t_monotonicity", "dominance", "t_separability"])
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_ranked_checks_draw_what_randint_sample_and_choice_draw(
        self, monkeypatch, check, n, seed
    ):
        oracle = audit_respondent("seu", n, seed)
        sampler = ActSampler.for_oracle(oracle)
        ranking = audit._outcome_ranking(oracle)
        made = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        monkeypatch.setattr(audit, "random", types.SimpleNamespace(Random=Recorded))
        extra = (oracle.model,) if check == "dominance" else ()
        run = getattr(audit, f"check_{check}")
        report = run(oracle, *extra, 30, seed, sampler, ranking=ranking)
        assert report.checked == 30
        [rng] = made
        assert rng.getstate() == ranked_check_draws(check, oracle, sampler, ranking, 30, seed)

    def test_the_subclasses_draw_integers_with_and_without_getrandbits(self):
        assert RandomOnly._randbelow is random.Random._randbelow_without_getrandbits
        assert XorBits._randbelow is random.Random._randbelow_with_getrandbits
        assert random.Random._randbelow is random.Random._randbelow_with_getrandbits

    @pytest.mark.parametrize("max_pieces", [2.0, 2.5, "3", None, True, False])
    def test_max_pieces_must_be_an_integer(self, max_pieces):
        model = seu_model()
        with pytest.raises(ValueError, match="max_pieces"):
            ActSampler(model.discount, STATES, model.outcomes, max_pieces=max_pieces)

    def test_no_outcomes_raises_as_choice_does(self):
        sampler = ActSampler(ExpMeasure(1.0), STATES, ())
        with pytest.raises(IndexError):
            sampler.profile(random.Random(0))
        assert sampler.disjoint_time_sets(random.Random(0)) is not None


class TestSortedBuilders:
    """The builders that skip canonical's per-cut check give what it gives."""

    def test_quantiles_that_overflow_give_the_reference_profile(self):
        # At a subnormal rate every quantile of a positive mass overflows to
        # inf: the first piece runs forever and the others have zero width.
        sampler = ActSampler(ExpMeasure(5e-324), STATES, ("a", "b", "c"))
        rng, ref = random.Random(4), random.Random(4)
        for n in [None] * 20 + [6]:
            got, want = sampler.profile(rng, n), draws_profile(sampler, ref, n)
            assert got == want
            assert got.cuts == ()
            assert rng.getstate() == ref.getstate()

    @pytest.mark.parametrize("outcomes", [("a", "b"), ()])
    @pytest.mark.parametrize("pieces", [0, -2])
    def test_no_pieces_raise_the_canonical_error(self, pieces, outcomes):
        sampler = ActSampler(ExpMeasure(1.0), STATES, outcomes)
        rng = random.Random(0)
        drawn = rng.getstate()
        with pytest.raises(ValueError, match="^need 1 outcomes for 2 bounds, got 0$"):
            sampler.profile(rng, pieces)
        assert rng.getstate() == drawn

    @pytest.mark.parametrize(
        "first, second, cuts",
        [
            # Intervals that start at one time, which only a custom sampler gives.
            ((1.0, 2.0), (1.0, 3.0), ()),
            ((1.0, 2.0, 4.0, INF), (1.0, 1.5), (0.5, 1.5, 2.5)),
            ((0.0, 1.0), (0.0, 1.0), (0.5,)),
            # Background cuts on the span bounds.
            ((1.0, 2.0), (3.0, 4.0), (1.0, 2.0, 3.0, 4.0)),
            ((0.0, 1.0), (2.0, INF), (1.0, 2.0)),
        ],
    )
    def test_swapped_pastes_equal_the_canonical_builds(self, monkeypatch, first, second, cuts):
        background = StepProfile(cuts, tuple("abcab"[: len(cuts) + 1]))
        got = audit._swapped_pastes(TimeSet(first), TimeSet(second))(background, "b", "c")
        monkeypatch.setattr(StepProfile, "_sorted", test_acts.ref_canonical)
        want = audit._swapped_pastes(TimeSet(first), TimeSet(second))(background, "b", "c")
        assert got == want

    def test_spans_with_one_start_drop_the_empty_piece(self):
        # [1, 2) is walked first, so [1, 3) leaves the piece [1, 1) behind.
        build = audit._swapped_pastes(TimeSet((1.0, 2.0)), TimeSet((1.0, 3.0)))
        left, right = build(StepProfile.constant("a"), "b", "c")
        assert left == StepProfile((1.0, 3.0), ("a", "c", "a"))
        assert right == StepProfile((1.0, 3.0), ("a", "b", "a"))


# -- the witness builders as they were before StepProfile.canonical ------------
# Every quantile through ExpMeasure.quantile, every draw through randint,
# uniform and choice, every profile built by from_breakpoints(...).normalized()
# over refine cells, each t-separability witness pasted on its own, every row
# valued by one sf and one utility call per piece.


def ref_breakpoints(self, rng, count):
    qs = sorted(rng.uniform(0.0, self.mass_ceiling) for _ in range(count))
    return [self.measure.quantile(q) for q in qs]


def ref_sampler_profile(self, rng, pieces=None):
    if pieces is None:
        pieces = rng.randint(1, self.max_pieces)
    cuts = self.breakpoints(rng, pieces - 1)
    outs = [rng.choice(self.outcomes) for _ in range(pieces)]
    return StepProfile.from_breakpoints(cuts, outs).normalized()


def ref_improved_profile(profile, ranking, outcomes, rng):
    upgrades = [
        (i, cand)
        for i, out in enumerate(profile.outs)
        for cand in outcomes
        if cand != out and ranking[(cand, out)] is Preference.STRICTLY_PREFERS_FIRST
    ]
    if not upgrades:
        return None
    i, cand = rng.choice(upgrades)
    outs = list(profile.outs)
    outs[i] = cand
    return StepProfile(profile.cuts, tuple(outs)).normalized()


def ref_pasted_profile(background, patches):
    cuts, outs = [], []
    for lo, _, (out,), inside in refine((background,), [ts for ts, _ in patches]):
        for hit, (_, patch) in zip(inside, patches):
            if hit:
                out = patch
                break
        cuts.append(lo)
        outs.append(out)
    return StepProfile.from_breakpoints(cuts[1:], outs).normalized()


def ref_swapped_pastes(first, second):
    """The t-separability witnesses as they were built: one pasted profile each."""

    def build(background, better, worse):
        return (
            ref_pasted_profile(background, [(first, better), (second, worse)]),
            ref_pasted_profile(background, [(first, worse), (second, better)]),
        )

    return build


def ref_overlay(top, times, bottom):
    cuts, outs = [], []
    for lo, _, (x, y), (hit,) in refine((top, bottom), (times,)):
        cuts.append(lo)
        outs.append(x if hit else y)
    return StepProfile.from_breakpoints(cuts[1:], outs).normalized()


def ref_splice_time(h, t, f):
    out = {}
    for s in f.states:
        if t == 0.0:
            out[s] = f.row(s).normalized()
            continue
        head, tail = h.row(s), f.row(s)
        k = bisect.bisect_left(head.cuts, t)
        out[s] = StepProfile.from_breakpoints(
            [*head.cuts[:k], t, *[t + c for c in tail.cuts]], [*head.outs[: k + 1], *tail.outs]
        ).normalized()
    return GridAct(out)


def ref_profile_value(discount, utility, profile):
    total = 0.0
    sf_lo = discount.sf(0.0)
    for t, out in zip((*profile.cuts, INF), profile.outs):
        sf_hi = discount.sf(t)
        total += (sf_lo - sf_hi) * utility(out)
        sf_lo = sf_hi
    return total


def audit_respondent(kind, n, seed):
    rng = random.Random(f"{kind}:{n}:{seed}")
    raw = [rng.uniform(0.5, 1.5) for _ in range(n)]
    states = tuple(f"s{i}" for i in range(n))
    model = DSEUModel(
        ExpMeasure(rng.uniform(0.3, 3.0)),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(states, raw)}),
    )
    if kind == "choquet":
        cap = Capacity.epsilon_contamination(model.beliefs, rng.uniform(0.05, 0.3))
        return ChoquetOracle(model.discount, model.utility, cap)
    if kind == "widened":
        return WidenedOracle(SEUOracle(model), 0.5 * model.utility.span)
    return SEUOracle(model)


class TestWholeAuditIdentity:
    @pytest.mark.parametrize("kind", ["seu", "choquet", "widened"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_reports_equal_those_of_the_reference_builders(self, monkeypatch, kind, n, seed):
        # The counting wrapper logs every witness asked, also where no
        # violation puts it into the report; the audit looks through it.
        asked = CountingOracle(audit_respondent(kind, n, seed), keep_log=True)
        report = run_audit(asked, samples=25, seed=seed)
        valued = []

        def counted_value(discount, utility, profile):
            valued.append(profile)
            return ref_profile_value(discount, utility, profile)

        monkeypatch.setattr(ActSampler, "breakpoints", ref_breakpoints)
        monkeypatch.setattr(ActSampler, "profile", ref_sampler_profile)
        monkeypatch.setattr(audit, "_improved_profile", ref_improved_profile)
        monkeypatch.setattr(audit, "_swapped_pastes", ref_swapped_pastes)
        monkeypatch.setattr(audit, "splice_time", ref_splice_time)
        monkeypatch.setattr(acts, "_overlay", ref_overlay)
        monkeypatch.setattr(evaluate, "profile_value", counted_value)
        monkeypatch.setattr(oracles, "profile_value", counted_value)
        ref_asked = CountingOracle(audit_respondent(kind, n, seed), keep_log=True)
        reference = run_audit(ref_asked, samples=25, seed=seed)
        assert valued
        assert repr(report) == repr(reference)
        assert repr(asked.log) == repr(ref_asked.log)
