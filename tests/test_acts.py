"""Profiles, grid acts, and the time/event splice operators."""

import copy
import dataclasses
import math
import operator
import pickle
import random
from itertools import compress

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dseu.acts import (
    Event,
    GridAct,
    StepProfile,
    _switch_act,
    restrict,
    splice_event,
    splice_time,
)
from dseu.equivalents import CEILING_MASS, FALLBACK_HORIZON
from dseu.measure import INF, ExpMeasure, TimeInterval, TimeSet

import canonical_splice
from level_sets import level_set

STATES = ("s0", "s1", "s2")
OUTCOMES = ("a", "b", "c", "d")


def random_profile(rng: random.Random, outcomes=OUTCOMES, max_pieces=6) -> StepProfile:
    n = rng.randint(1, max_pieces)
    cuts = sorted(rng.uniform(0.0, 8.0) for _ in range(n - 1))
    outs = [rng.choice(outcomes) for _ in range(n)]
    return StepProfile.from_breakpoints(cuts, outs)


def random_act(rng: random.Random, states=STATES) -> GridAct:
    return GridAct({s: random_profile(rng) for s in states})


class TestStepProfile:
    def test_tiling_validated(self):
        for cuts, outs in [
            ((1.0,), ("a",)),  # one outcome too few
            ((1.0,), ("a", "b", "c")),  # one outcome too many
            ((0.0,), ("a", "b")),  # empty first piece
            ((-1.0,), ("a", "b")),  # cut before time 0
            ((2.0, 1.0), ("a", "b", "c")),  # decreasing
            ((1.0, 1.0), ("a", "b", "c")),  # empty middle piece
            ((1.0, INF), ("a", "b", "c")),  # cut at inf
            ((float("nan"),), ("a", "b")),
        ]:
            with pytest.raises(ValueError):
                StepProfile(cuts, outs)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_outcome_at_a_negative_or_nan_time_is_rejected(self, t):
        with pytest.raises(ValueError, match=f"^time must be >= 0, got {t}$"):
            StepProfile.before_after("a", 1.0, "b").outcome_at(t)

    def test_normalize_merges(self):
        p = StepProfile((1.0,), ("x", "x"))
        assert p.normalized() == StepProfile.constant("x")

    def test_normalize_idempotent(self):
        p = StepProfile.before_after("a", 2.0, "b")
        assert p.normalized() == p
        assert p.normalized().normalized() == p.normalized()

    def test_normalize_returns_self_when_nothing_merges(self):
        rng = random.Random(6)
        for _ in range(50):
            p = random_profile(rng, max_pieces=10)
            q = p.normalized()
            assert q.normalized() is q
            outs = p.outs
            if all(a != b for a, b in zip(outs, outs[1:])):
                assert q is p
            else:
                assert q is not p and len(q.cuts) < len(p.cuts)

    def test_normalize_pointwise_equal_on_random_profiles(self):
        rng = random.Random(5)
        for _ in range(50):
            p = random_profile(rng, max_pieces=10)
            q = p.normalized()
            for _ in range(1000):
                t = rng.uniform(0.0, 12.0)
                assert p.outcome_at(t) == q.outcome_at(t)

    def test_level_set(self):
        p = StepProfile.from_breakpoints([1.0, 2.0, 3.0], ["a", "b", "a", "c"])
        assert level_set(p, "a") == TimeSet.from_pairs([(0.0, 1.0), (2.0, 3.0)])
        assert level_set(p, "z").is_empty

    def test_before_after_boundaries(self):
        assert StepProfile.before_after("a", 0.0, "b") == StepProfile.constant("b")
        assert StepProfile.before_after("a", INF, "b") == StepProfile.constant("a")
        for t in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                StepProfile.before_after("a", t, "b")


# -- the chain that StepProfile.canonical names ---------------------------------
# from_breakpoints(...).normalized() as it was before canonical, with the
# per-cut check of the constructor; ValueError carries the chain's message.
# It builds with neither from_breakpoints nor normalized, so it also stands
# in for canonical where canonical's own build is under test.


def ref_check_cuts(cuts):
    prev = 0.0
    for cut in cuts:
        if not prev < cut < INF:
            raise ValueError(
                f"cuts must be finite, above 0 and strictly increasing: {cut!r} after {prev!r}"
            )
        prev = cut


def ref_canonical(breakpoints, outcomes):
    bounds = [0.0, *breakpoints, INF]
    outs = list(outcomes)
    if len(outs) != len(bounds) - 1:
        raise ValueError(
            f"need {len(bounds) - 1} outcomes for {len(bounds)} bounds, got {len(outs)}"
        )
    kept = list(map(operator.ne, bounds, bounds[1:]))
    cuts = list(compress(bounds, kept))[1:]
    outs = list(compress(outs, kept))
    ref_check_cuts(cuts)
    changes = [k for k in range(1, len(outs)) if outs[k] != outs[k - 1]]
    return StepProfile(tuple([cuts[k - 1] for k in changes]), (outs[0], *[outs[k] for k in changes]))


def outcome_of(build, *args):
    """``("ok", result)`` or ``("ValueError", message)``."""
    try:
        return "ok", build(*args)
    except ValueError as err:
        return "ValueError", str(err)


# Repeats, 0.0, -0.0, negatives, NaN and both infinities among ordinary cuts.
POINTS = st.sampled_from((0.0, -0.0, -1.0, 0.5, 1.0, 3.0, INF, -INF, math.nan)) | st.floats(
    allow_nan=True, allow_infinity=True
)


@st.composite
def breakpoint_inputs(draw):
    """Breakpoints, often sorted, with one outcome per segment give or take one."""
    points = draw(st.lists(POINTS, max_size=8))
    if draw(st.booleans()):
        points.sort()
    n = max(0, len(points) + 1 + draw(st.sampled_from((0, 0, 0, -1, 1))))
    outs = draw(st.lists(st.sampled_from(("a", "b")), min_size=n, max_size=n))
    return points, outs


class TestCanonical:
    @pytest.mark.identity
    @given(breakpoint_inputs())
    @example(([1.0, 0.5, 2.0], ["a", "a", "a", "b"]))  # bad cut between equal outcomes
    @example(([1.0, 1.0, 0.0], ["a", "b", "b", "b"]))
    @example(([INF, INF], ["a", "b", "c"]))
    @example(([INF, 2.0], ["a", "a", "a"]))
    @example(([0.0, 0.0, 1.0], ["a", "b", "c", "c"]))
    @settings(deadline=None)
    def test_equals_from_breakpoints_then_normalized(self, case):
        points, outs = case
        want = outcome_of(ref_canonical, points, outs)
        got = outcome_of(StepProfile.canonical, points, outs)
        assert got == want
        # canonical skips the constructor's check; the constructor must
        # still accept every profile it hands out, and build an equal one.
        if got[0] == "ok":
            p = got[1]
            assert type(p) is StepProfile
            assert StepProfile(p.cuts, p.outs) == p
        chain = lambda b, o: StepProfile.from_breakpoints(b, o).normalized()  # noqa: E731
        assert outcome_of(chain, points, outs) == want
        # The constructor rejects exactly the cuts the per-cut check rejects.
        if len(outs) == len(points) + 1:
            built = outcome_of(StepProfile, tuple(points), tuple(outs))
            checked = outcome_of(ref_check_cuts, points)
            assert built[0] == checked[0]
            if built[0] == "ValueError":
                assert built == checked


@st.composite
def sorted_inputs(draw):
    """Non-decreasing cuts ``>= 0`` (repeats, ``0.0``, ``-0.0``, ``inf``) and one outcome more."""
    point = st.sampled_from((0.0, -0.0, 0.5, 1.0, 3.0, INF)) | st.floats(
        min_value=0.0, allow_nan=False, allow_infinity=True
    )
    cuts = sorted(draw(st.lists(point, max_size=8)))
    n = len(cuts) + 1
    outs = draw(st.lists(st.sampled_from(("a", "b", "c")), min_size=n, max_size=n))
    return cuts, outs


class TestSorted:
    @pytest.mark.identity
    @given(sorted_inputs())
    @example(([0.0, 0.0, 1.0, 1.0, INF, INF], ["a", "b", "c", "c", "a", "b", "c"]))
    @example(([INF], ["a", "b"]))
    @example(([-0.0, 2.0], ["a", "a", "b"]))
    @settings(deadline=None)
    def test_equals_canonical_on_sorted_cuts(self, case):
        cuts, outs = case
        # canonical normalizes through _sorted, so the reference is the chain's own copy.
        want = ref_canonical(cuts, outs)
        got = StepProfile._sorted(cuts, outs)
        assert profile_fields_are_tuples(got)
        assert [c.hex() for c in got.cuts] == [c.hex() for c in want.cuts]
        assert got.outs == want.outs
        assert StepProfile(got.cuts, got.outs) == got


def profile_fields_are_tuples(p):
    return type(p) is StepProfile and type(p.cuts) is tuple and type(p.outs) is tuple


def act_outcome(build, *args):
    """``outcome_of``, after checking what ``==`` does not see: the act's types."""
    got = outcome_of(build, *args)
    if got[0] == "ValueError":
        return got
    act = got[1]
    assert type(act) is GridAct and type(act.profiles) is dict
    assert all(map(profile_fields_are_tuples, act.profiles.values()))
    return got


ACT_STATES = st.lists(st.sampled_from(("s0", "s1", "s2", "s10", "b", "a")), max_size=5)


class TestUncheckedBuilders:
    """Builders that skip the constructor's check against the checked constructors."""

    @pytest.mark.identity
    @given(st.sampled_from(OUTCOMES), POINTS, st.sampled_from(OUTCOMES))
    @example("a", 0.0, "b")
    @example("a", -0.0, "b")
    @example("a", INF, "b")
    @example("a", math.nan, "b")
    @example("a", -1.0, "b")
    @example("a", 2.0, "a")
    @settings(deadline=None)
    def test_profiles_equal_the_checked_constructors(self, early, t, late):
        # from_breakpoints runs the constructor's check on every t.
        want = outcome_of(StepProfile.from_breakpoints, (t,), (early, late))
        got = outcome_of(StepProfile.before_after, early, t, late)
        assert got == want
        if got[0] == "ok":
            assert profile_fields_are_tuples(got[1])
            if 0.0 < t < INF:
                assert got[1] == StepProfile((t,), (early, late))
        constant = StepProfile.constant(early)
        assert constant == StepProfile((), (early,))
        assert profile_fields_are_tuples(constant)

    @pytest.mark.identity
    @given(ACT_STATES, st.sampled_from(OUTCOMES), POINTS, st.sampled_from(OUTCOMES))
    @example(["s0"], "a", 0.0, "b")
    @example(["s0"], "a", -0.0, "b")
    @example(["s0"], "a", 5e-324, "b")
    @example(["s0", "s1"], "a", 1.0, "b")
    # The searches' ceilings: at rate 1, and without a rate.
    @example(["s0", "s1"], "a", ExpMeasure(1.0).quantile(CEILING_MASS), "b")
    @example(["s0", "s1"], "a", FALLBACK_HORIZON, "b")
    @example(["s0"], "a", INF, "b")
    @example(["s0"], "a", math.nan, "b")
    @example(["s0"], "a", -1.0, "b")
    @example(["s0", "s1"], "a", 2.0, "a")
    @example([], "a", 2.0, "b")
    @example([], "a", math.nan, "b")
    @settings(deadline=None)
    def test_switch_act_equals_deterministic_before_after(self, states, early, t, late):
        def ref(states, early, t, late):
            return GridAct.deterministic(states, StepProfile.before_after(early, t, late))

        got = act_outcome(_switch_act, states, early, t, late)
        assert got == act_outcome(ref, states, early, t, late)
        if got[0] == "ok":
            act = got[1]
            assert act.common_row == ref(states, early, t, late).common_row
            assert all(p is act.common_row for p in act.profiles.values())

    @pytest.mark.identity
    @given(
        ACT_STATES,
        st.lists(POINTS.filter(lambda t: 0.0 < t < INF), max_size=4),
        st.lists(st.sampled_from(OUTCOMES), min_size=5, max_size=5),
        st.lists(st.sampled_from(("s0", "s1", "b", "x")), max_size=3),
        st.sampled_from((list, set, frozenset, iter)),
    )
    @example([], [], ["a"] * 5, [], list)
    @example(["s0", "s1", "s0"], [1.0, 2.0], ["a", "a", "b", "c", "d"], ["s0"], list)
    @example(["s0", "s1"], [], ["a", "a", "b", "c", "d"], ["s1", "x"], iter)
    @settings(deadline=None)
    def test_acts_equal_the_checked_constructors(self, states, cuts, outs, on, container):
        cuts = sorted(set(cuts))
        profile = StepProfile.from_breakpoints(cuts, outs[: len(cuts) + 1])
        win, lose = outs[-2:]

        def ref_deterministic(states, profile):
            return GridAct(dict.fromkeys(states, profile.normalized()))

        def ref_bet(states, on, win, lose):
            event = set(on)
            return GridAct({s: StepProfile((), (win if s in event else lose,)) for s in states})

        def ref_constant(states, outcome):
            return GridAct(dict.fromkeys(states, StepProfile((), (outcome,))))

        cases = [
            (GridAct.deterministic, ref_deterministic, (states, profile)),
            (GridAct.constant, ref_constant, (states, win)),
        ]
        for build, ref, args in cases:
            got = act_outcome(build, *args)
            assert got == act_outcome(ref, *args)
        # A generator is consumed by the call, so each call gets its own.
        got = act_outcome(GridAct.bet, states, container(on), win, lose)
        assert got == act_outcome(ref_bet, states, container(on), win, lose)
        if not states:
            return
        # deterministic and constant record their one row; a bet does not.
        for act in (GridAct.deterministic(states, profile), GridAct.constant(states, win)):
            assert all(p is act.common_row for p in act.profiles.values())
        assert GridAct.deterministic(states, profile).common_row == profile.normalized()
        assert GridAct.constant(states, win).common_row == StepProfile((), (win,))
        bet = GridAct.bet(states, container(on), win, lose)
        assert bet.common_row is None
        # As in GridAct.stochastic, states paying the same outcome share one row.
        assert len({id(p) for p in bet.profiles.values()}) == len(
            {p.outs for p in bet.profiles.values()}
        )

    def test_acts_from_a_mapping_record_no_row(self):
        row = StepProfile.constant("a")
        for act in (GridAct(dict.fromkeys(STATES, row)), GridAct.stochastic({"s0": "a"})):
            assert act.common_row is None
        recorded = GridAct.constant(STATES, "a")
        assert recorded == GridAct(dict.fromkeys(STATES, row))
        assert repr(recorded) == repr(GridAct(dict.fromkeys(STATES, row)))

    def test_common_row_is_a_class_default_that_lifted_acts_override(self):
        lifted = GridAct.deterministic(STATES, StepProfile.before_after("a", 1.0, "b"))
        row = lifted.common_row
        assert row is not None and "common_row" in vars(lifted)
        # Only lifted acts hold one: an act built from a mapping reads the class's None.
        assert GridAct.common_row is None
        assert "common_row" not in vars(GridAct(dict(lifted.profiles)))
        assert [f.name for f in dataclasses.fields(GridAct)] == ["profiles"]
        for twin in (copy.copy(lifted), copy.deepcopy(lifted), pickle.loads(pickle.dumps(lifted))):
            assert twin == lifted
            assert twin.common_row == row
            assert all(p is twin.common_row for p in twin.profiles.values())
        assert copy.copy(lifted).common_row is row
        # replace builds the act from its mapping, so it records no row.
        for built in (dataclasses.replace(lifted), dataclasses.replace(lifted, profiles=dict(lifted.profiles))):
            assert built == lifted and built.common_row is None
        plain = GridAct(dict(lifted.profiles))
        for twin in (copy.copy(plain), pickle.loads(pickle.dumps(plain))):
            assert twin == lifted and twin.common_row is None
        assert repr(lifted) == repr(plain) == f"GridAct(profiles={dict(lifted.profiles)!r})"
        assert lifted == plain
        with pytest.raises(dataclasses.FrozenInstanceError):
            lifted.common_row = None


def checked_lift(states, row):
    """``GridAct._lift`` through the constructor and ``object.__setattr__``."""
    act = GridAct(dict.fromkeys(states, row))
    object.__setattr__(act, "common_row", row)
    return act


def checked_switch_act(states, early, t, late):
    """``_switch_act`` through the checked constructors only."""
    return checked_lift(states, StepProfile.from_breakpoints((t,), (early, late)).normalized())


def assert_same_build(got, want):
    """``got`` is ``want`` in everything a caller can read, copy or pickle."""
    assert type(got) is type(want)
    assert got == want and want == got and repr(got) == repr(want)
    # The instance dicts, in their order, and so the pickles, byte for byte.
    assert list(vars(got).items()) == list(vars(want).items())
    assert pickle.dumps(got) == pickle.dumps(want)
    for twin in (copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert type(twin) is type(want) and twin == want
        assert list(vars(twin).items()) == list(vars(want).items())
    if type(want) is StepProfile:
        assert hash(got) == hash(want)
        assert dataclasses.replace(got) == want
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.cuts = ()
        return
    assert type(got.profiles) is dict and all(map(profile_fields_are_tuples, got.profiles.values()))
    for act in (got, copy.copy(got), copy.deepcopy(got), pickle.loads(pickle.dumps(got))):
        assert act.common_row == want.common_row
        assert all(p is act.common_row for p in act.profiles.values())
    # replace builds the act from its mapping, so it records no row.
    replaced = dataclasses.replace(got)
    assert replaced == want and replaced.common_row is None
    for name in ("profiles", "common_row"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(got, name, None)


def assert_same_outcome(got, want):
    """Two ``outcome_of`` results: the same build, or the same error."""
    assert got[0] == want[0]
    if got[0] == "ok":
        assert_same_build(got[1], want[1])
    else:
        assert got == want


STATE_CONTAINERS = st.sampled_from((list, tuple, iter))


class TestDirectWrites:
    """Rows and acts whose fields are written into the instance dict, against the constructors.

    The direct writes rest on how CPython lays out a frozen dataclass
    instance, so CI runs these on every interpreter.
    """

    @pytest.mark.identity
    @given(
        ACT_STATES, STATE_CONTAINERS, st.sampled_from(OUTCOMES), POINTS, st.sampled_from(OUTCOMES)
    )
    @example(["s0", "s1"], tuple, "a", 1.0, "b")
    @example(["s0", "s0", "s1"], list, "a", 5e-324, "b")
    @example(["s0"], iter, "a", 2.0, "b")
    @example([], tuple, "a", 2.0, "b")
    @example([], iter, "a", 2.0, "b")
    @example([], tuple, "a", math.nan, "b")
    @example(["s0"], tuple, "a", 0.0, "b")
    @example(["s0"], tuple, "a", INF, "b")
    @example(["s0"], tuple, "a", 2.0, "a")
    @settings(deadline=None)
    def test_switch_act_equals_the_checked_build(self, states, container, early, t, late):
        # A generator is consumed by the call, so each call gets its own.
        assert_same_outcome(
            outcome_of(_switch_act, container(states), early, t, late),
            outcome_of(checked_switch_act, container(states), early, t, late),
        )

    @pytest.mark.identity
    @given(
        ACT_STATES,
        STATE_CONTAINERS,
        st.lists(st.floats(min_value=5e-324, max_value=1e300), max_size=4),
        st.lists(st.sampled_from(OUTCOMES), min_size=5, max_size=5),
    )
    @example([], tuple, [], ["a"] * 5)
    @example([], iter, [1.0], ["a", "b", "c", "d", "a"])
    @example(["s1", "s0", "s1"], list, [1.0, 2.0], ["a", "a", "b", "c", "d"])
    @settings(deadline=None)
    def test_lift_and_unchecked_equal_the_constructors(self, states, container, cuts, outs):
        cuts = tuple(sorted(set(cuts)))
        outs = tuple(outs[: len(cuts) + 1])
        assert_same_build(StepProfile._unchecked(cuts, outs), StepProfile(cuts, outs))
        row = StepProfile.from_breakpoints(cuts, outs).normalized()
        got = outcome_of(GridAct._lift, container(states), row)
        assert_same_outcome(got, outcome_of(checked_lift, container(states), row))
        if states:
            assert got[1].common_row is row
        else:
            assert got == ("ValueError", "an act needs at least one state")

    def test_the_one_row_builders_equal_the_checked_builds(self):
        row = StepProfile((1.0,), ("a", "b"))
        for got, want in [
            (GridAct.deterministic(STATES, row), checked_lift(STATES, row)),
            (GridAct.constant(STATES, "a"), checked_lift(STATES, StepProfile((), ("a",)))),
            (StepProfile.constant("a"), StepProfile((), ("a",))),
        ]:
            assert_same_build(got, want)


class TestGridAct:
    def test_deterministic_flag(self):
        det = GridAct.deterministic(STATES, StepProfile.before_after("a", 1.0, "b"))
        assert det.is_deterministic
        sto = GridAct.stochastic({"s0": "a", "s1": "b", "s2": "a"})
        assert not sto.is_deterministic
        const = GridAct.constant(STATES, "a")
        assert const.is_deterministic

    def test_restrict_reads_back_rows(self):
        rng = random.Random(9)
        rows = {s: random_profile(rng).normalized() for s in STATES}
        act = GridAct(rows)
        for s in STATES:
            assert restrict(act, s) == rows[s]
        with pytest.raises(KeyError):
            restrict(act, "unknown")

    def test_restrict_on_special_acts(self):
        det = GridAct.deterministic(STATES, StepProfile.before_after("a", 1.0, "b"))
        assert len({restrict(det, s) for s in STATES}) == 1
        sto = GridAct.stochastic({"s0": "a", "s1": "b", "s2": "a"})
        for s in STATES:
            assert restrict(sto, s).cuts == ()


@st.composite
def splice_inputs(draw):
    """Two acts on ``STATES`` and a time: 0, on a head cut, between two, or any float.

    Each act's states share up to three rows, drawn from alphabets as small
    as one outcome, so equal outcomes often meet at the splice time.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    outcomes = OUTCOMES[: draw(st.integers(1, 4))]

    def act():
        rows = [random_profile(rng, outcomes) for _ in range(draw(st.integers(1, 3)))]
        return GridAct({s: rows[draw(st.integers(0, len(rows) - 1))] for s in STATES})

    h, f = act(), act()
    cuts = sorted({c for row in h.profiles.values() for c in row.cuts})
    kind = draw(st.sampled_from(("zero", "cut", "between", "any")))
    if kind == "zero":
        t = draw(st.sampled_from((0.0, -0.0)))
    elif kind == "cut" and cuts:
        t = draw(st.sampled_from(cuts))
    elif kind == "between" and len(cuts) >= 2:
        k = draw(st.integers(0, len(cuts) - 2))
        t = 0.5 * (cuts[k] + cuts[k + 1])
    else:
        t = draw(POINTS | st.floats(0.0, 10.0))
    return h, t, f


# A tail whose states share one row that is not normalized, for splices at 0.
SHARED_ROW = StepProfile((0.5, 2.0), ("a", "a", "b"))
ZERO_HEAD = GridAct.deterministic(STATES, StepProfile((1.0,), ("d", "a")))
ZERO_TAIL = GridAct({"s0": SHARED_ROW, "s1": SHARED_ROW, "s2": StepProfile((1.0,), ("c", "d"))})


class TestSpliceTime:
    @pytest.mark.identity
    @given(splice_inputs())
    @example((ZERO_HEAD, 0.0, ZERO_TAIL))
    @example((ZERO_HEAD, -0.0, ZERO_TAIL))
    @settings(deadline=None)
    def test_equals_the_canonical_build(self, case):
        want = act_outcome(canonical_splice.splice_time, *case)
        got = act_outcome(splice_time, *case)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.identity
    @pytest.mark.parametrize("t", [1e308, 1.7e308])
    def test_tail_cuts_shifted_past_the_largest_float_are_dropped_as_canonical_drops_them(self, t):
        # t + 1e308 overflows to inf at both t; t + 1e307 only at the larger.
        tail = StepProfile((1e307, 1e308), ("a", "b", "c"))
        h = GridAct({"s": StepProfile((1.0,), ("d", "a")), "r": StepProfile.constant("d")})
        f = GridAct({"s": tail, "r": tail})
        got = act_outcome(splice_time, h, t, f)
        assert got == act_outcome(canonical_splice.splice_time, h, t, f)
        assert got[0] == "ok"
        assert got[1].row("r").cuts == tuple(c for c in (t, t + 1e307) if c < INF)

    def test_zero_returns_tail_act(self):
        rng = random.Random(1)
        h, f = random_act(rng), random_act(rng)
        spliced = splice_time(h, 0.0, f)
        for s in STATES:
            assert spliced.row(s) == f.row(s).normalized()

    def test_delayed_bet_pays_on_event_after_t(self):
        # Delaying a bet behind a constant zero head puts the winning outcome
        # exactly on the event rows from t onward.
        states = ("e", "rest")
        bet = GridAct.bet(states, {"e"}, "10", "0")
        zero = GridAct.constant(states, "0")
        t = 0.7
        delayed = splice_time(zero, t, bet)
        assert delayed.row("e") == StepProfile.before_after("0", t, "10")
        assert delayed.row("rest") == StepProfile.constant("0")

    def test_pointwise_definition_on_random_inputs(self):
        rng = random.Random(2)
        for _ in range(30):
            h, f = random_act(rng), random_act(rng)
            t = rng.uniform(0.0, 6.0)
            spliced = splice_time(h, t, f)
            for _ in range(300):
                s = rng.choice(STATES)
                tp = rng.uniform(0.0, 15.0)
                want = h.at(s, tp) if tp < t else f.at(s, tp - t)
                assert spliced.at(s, tp) == want

    def test_nested_splices_compose_pointwise(self):
        rng = random.Random(3)
        for _ in range(20):
            h, hp, f = random_act(rng), random_act(rng), random_act(rng)
            t, tp = rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0)
            nested = splice_time(h, t, splice_time(hp, tp, f))
            for _ in range(200):
                s = rng.choice(STATES)
                u = rng.uniform(0.0, 12.0)
                if u < t:
                    want = h.at(s, u)
                elif u - t < tp:
                    want = hp.at(s, u - t)
                else:
                    want = f.at(s, u - t - tp)
                assert nested.at(s, u) == want

    def test_tail_piece_that_vanishes_in_the_shift_is_dropped(self):
        # 0.5 + 0.001 and 0.5 + nextafter(0.001) are one float: [0.001, 0.001+) is gone.
        tail = StepProfile((0.001, math.nextafter(0.001, 1.0)), ("a", "b", "c"))
        head = GridAct.constant(("s",), "d")
        spliced = splice_time(head, 0.5, GridAct.deterministic(("s",), tail))
        assert spliced.row("s") == StepProfile((0.5, 0.501), ("d", "a", "c"))

    def test_tail_constant_case(self):
        rng = random.Random(4)
        h = random_act(rng)
        t = 1.5
        spliced = splice_time(h, t, GridAct.constant(STATES, "d"))
        for s in STATES:
            for u in (0.0, 0.3, 1.2):
                assert spliced.at(s, u) == h.at(s, u)
            for u in (1.5, 2.0, 9.0):
                assert spliced.at(s, u) == "d"


@st.composite
def splice_event_inputs(draw):
    """Two acts on ``STATES`` and an event, with ``g`` now and then on other states.

    The acts' rows are drawn as in :func:`splice_inputs`, so they are often
    not normalized and shared between states.  The event's time set is
    ``None``, empty, the whole horizon, or bounds drawn from the rows' cuts
    and other times, one set starting at 0 and one reaching ``inf``.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    outcomes = OUTCOMES[: draw(st.integers(1, 4))]

    def act(states):
        rows = [random_profile(rng, outcomes) for _ in range(draw(st.integers(1, 3)))]
        return GridAct({s: rows[draw(st.integers(0, len(rows) - 1))] for s in states})

    f = act(STATES)
    g = act(draw(st.sampled_from((STATES, STATES, STATES, STATES[:2]))))
    states = draw(st.none() | st.frozensets(st.sampled_from((*STATES, "x")), max_size=3))
    kind = draw(st.sampled_from(("none", "empty", "full", "from 0", "to inf", "inside")))
    if kind == "none":
        return f, Event(states, None), g
    if kind == "empty":
        return f, Event(states, TimeSet.empty()), g
    if kind == "full":
        return f, Event(states, TimeSet.full()), g
    cuts = sorted({c for a in (f, g) for row in a.profiles.values() for c in row.cuts})
    point = st.sampled_from((0.5, 1.0, 2.0)) | st.floats(1e-3, 10.0)
    if cuts:
        point |= st.sampled_from(cuts)
    bounds = sorted(set(draw(st.lists(point, min_size=1, max_size=6))))
    if kind == "from 0":
        bounds.insert(0, draw(st.sampled_from((0.0, -0.0))))
    elif kind == "to inf":
        bounds.append(INF)
    if len(bounds) % 2:
        del bounds[0 if kind == "to inf" else -1]
    return f, Event(states, TimeSet(tuple(bounds))), g


class TestSpliceEvent:
    @pytest.mark.identity
    @given(splice_event_inputs())
    @settings(deadline=None)
    def test_equals_the_canonical_build(self, case):
        want = act_outcome(canonical_splice.splice_event, *case)
        got = act_outcome(splice_event, *case)
        assert got == want
        assert repr(got) == repr(want)

    @pytest.mark.parametrize("times", [[(0.0, 1.0)], (0.0, 1.0), TimeInterval(0.0, 1.0), "[0, 1)"])
    def test_event_times_must_be_a_time_set(self, times):
        with pytest.raises(TypeError, match="^event times must be a TimeSet or None, got "):
            Event(times=times)
        with pytest.raises(TypeError):
            Event.on_times(times)

    @pytest.mark.parametrize("states", ["s10", ("s10",), ["s10"], {"s10": True}])
    def test_event_states_must_be_a_set(self, states):
        with pytest.raises(TypeError, match="^event states must be a set, a frozenset or None, got "):
            Event(states=states)

    @pytest.mark.parametrize("states", [{"s10"}, frozenset({"s10"})])
    def test_a_state_named_inside_another_is_not_covered(self, states):
        # A string "s10" would contain "s1" as a substring.
        f = GridAct.constant(("s1", "s10"), "a")
        g = GridAct.constant(("s1", "s10"), "b")
        spliced = splice_event(f, Event(states=states), g)
        assert spliced == GridAct({"s1": g.row("s1"), "s10": f.row("s10")})

    def test_full_and_empty(self):
        rng = random.Random(6)
        f, g = random_act(rng), random_act(rng)
        assert splice_event(f, Event(states=None, times=None), g) == GridAct(
            {s: f.row(s).normalized() for s in STATES}
        )
        assert splice_event(f, Event(states=frozenset(), times=None), g) == GridAct(
            {s: g.row(s).normalized() for s in STATES}
        )
        empty_times = Event.on_times(TimeSet.empty())
        assert splice_event(f, empty_times, g) == GridAct(
            {s: g.row(s).normalized() for s in STATES}
        )

    def test_state_event_swaps_rows(self):
        rng = random.Random(7)
        f, g = random_act(rng), random_act(rng)
        spliced = splice_event(f, Event(states=frozenset({"s1"}), times=None), g)
        assert spliced.row("s1") == f.row("s1").normalized()
        for s in ("s0", "s2"):
            assert spliced.row(s) == g.row(s).normalized()

    def test_rectangle_event_pointwise(self):
        rng = random.Random(8)
        times = TimeSet.from_pairs([(0.5, 1.5), (3.0, INF)])
        event = Event(states=frozenset({"s0", "s2"}), times=times)
        for _ in range(20):
            f, g = random_act(rng), random_act(rng)
            spliced = splice_event(f, event, g)
            for _ in range(300):
                s = rng.choice(STATES)
                t = rng.uniform(0.0, 10.0)
                inside = s in ("s0", "s2") and times.contains(t)
                want = f.at(s, t) if inside else g.at(s, t)
                assert spliced.at(s, t) == want

    def test_complement_symmetry_for_state_events(self):
        rng = random.Random(10)
        f, g = random_act(rng), random_act(rng)
        event = Event(states=frozenset({"s0"}), times=None)
        complement = Event(states=frozenset({"s1", "s2"}), times=None)
        assert splice_event(f, event, g) == splice_event(g, complement, f)

    def test_complement_symmetry_for_time_events(self):
        rng = random.Random(11)
        f, g = random_act(rng), random_act(rng)
        times = TimeSet.from_pairs([(1.0, 2.0)])
        assert splice_event(f, Event.on_times(times), g) == splice_event(
            g, Event.on_times(times.complement()), f
        )

    def test_mismatched_states_rejected(self):
        f = GridAct.constant(("s0",), "a")
        g = GridAct.constant(STATES, "b")
        with pytest.raises(ValueError):
            splice_event(f, Event(states=None, times=None), g)


class TestTilingPreserved:
    def test_operations_keep_valid_profiles(self):
        rng = random.Random(12)
        measure = ExpMeasure(1.0)
        for _ in range(50):
            f, g, h = random_act(rng), random_act(rng), random_act(rng)
            t = rng.uniform(0.0, 4.0)
            acts = [
                splice_time(h, t, f),
                splice_event(f, Event(states=frozenset({"s1"}), times=None), g),
                splice_event(
                    f,
                    Event.on_times(TimeSet.from_pairs([(0.5, 2.0)])),
                    g,
                ),
            ]
            for act in acts:
                for s in STATES:
                    # construction re-validates the tiling invariant
                    StepProfile(act.row(s).cuts, act.row(s).outs)
                    assert measure.mass(TimeSet.full()) == pytest.approx(
                        sum(measure.sf(lo) - measure.sf(hi) for lo, hi, _ in act.row(s).segments()),
                        abs=1e-12,
                    )
