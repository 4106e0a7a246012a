"""Builders that merge copied runs where they meet, against the ``_sorted`` builds they replaced.

The references in ``sorted_builders`` collect every run whole and walk the
row once more with ``StepProfile._sorted``.  The builders here merge each
run with the piece before it as they copy it, so they must give the same
floats and outcomes, row for row: on touching intervals, on background
cuts that fall on span bounds, on rows that are not normalized, and on
shifted tail cuts that round together, onto ``t`` or past the largest float.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dseu import audit
from dseu.acts import GridAct, StepProfile, _overlay, splice_time
from dseu.measure import INF, TimeSet
from dseu.oracles import Preference

import sorted_builders
from test_refine import TIMES, disjoint_time_sets, profiles, touching_time_sets

OUTCOMES = ("a", "b", "c")
STATES = ("s0", "s1")


def hex_row(row):
    assert type(row) is StepProfile and type(row.cuts) is tuple and type(row.outs) is tuple
    return [c.hex() for c in row.cuts], row.outs


def hex_act(act):
    return {s: hex_row(row) for s, row in act.profiles.items()}


#: Rows as drawn (equal neighbours allowed) or normalized, as the library's own are.
ROWS = st.builds(lambda row, norm: row.normalized() if norm else row, profiles(), st.booleans())


@st.composite
def time_sets(draw):
    """Any time set on the shared grid: it may start at 0, reach inf, or be empty."""
    cuts = sorted(set(draw(st.lists(TIMES, max_size=6))))
    if draw(st.booleans()):
        cuts.insert(0, 0.0)
    if len(cuts) % 2:
        cuts.append(INF)
    return TimeSet(tuple(cuts))


@pytest.mark.identity
@given(ROWS, disjoint_time_sets(min_sets=1, max_sets=1) | time_sets().map(lambda ts: [ts]), ROWS)
@settings(deadline=None)
def test_overlay_equals_the_sorted_build(top, time_sets, bottom):
    (times,) = time_sets
    assert hex_row(_overlay(top, times, bottom)) == hex_row(
        sorted_builders.overlay(top, times, bottom)
    )


@pytest.mark.identity
@given(
    ROWS,
    disjoint_time_sets(min_sets=2, max_sets=2) | touching_time_sets() | st.lists(time_sets(), min_size=2, max_size=2),
    st.sampled_from(OUTCOMES),
    st.sampled_from(OUTCOMES),
)
@example(StepProfile.constant("a"), [TimeSet((1.0, 2.0)), TimeSet((1.0, 3.0))], "b", "c")
@example(StepProfile((1.0, 2.0), ("a", "b", "a")), [TimeSet((1.0, 2.0)), TimeSet((2.0, 3.0))], "b", "a")
@settings(deadline=None)
def test_swapped_pastes_equal_the_sorted_builds(background, time_sets, better, worse):
    # Sets that overlap or share a start, which only a custom sampler gives, included.
    first, second = time_sets
    got = audit._swapped_pastes(first, second)(background, better, worse)
    want = sorted_builders.swapped_pastes(first, second)(background, better, worse)
    assert [hex_row(row) for row in got] == [hex_row(row) for row in want]


#: Shifts and tail cuts whose sums round together, onto the shift, or past the largest float.
SHIFTS = st.sampled_from((0.0, -0.0, 0.5, 1.0, 2.0**53, 1e16, 1e308, 1.7e308)) | st.floats(
    min_value=0.0, max_value=1e308
)
TAIL_CUTS = st.sampled_from(
    (5e-324, 1e-300, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 1e307, 1e308, 1.7e308)
) | st.floats(min_value=5e-324, max_value=1.7e308)


@st.composite
def shifted_rows(draw, points):
    cuts = sorted(set(draw(st.lists(points, max_size=5))) - {0.0})
    outs = draw(st.lists(st.sampled_from(OUTCOMES), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    row = StepProfile(tuple(cuts), tuple(outs))
    return row.normalized() if draw(st.booleans()) else row


@pytest.mark.identity
@given(
    st.lists(shifted_rows(SHIFTS | TAIL_CUTS), min_size=2, max_size=2),
    SHIFTS,
    st.lists(shifted_rows(TAIL_CUTS), min_size=2, max_size=2),
)
@example([StepProfile((1e16,), ("a", "b"))] * 2, 1e16, [StepProfile((0.5, 1.0, 1.5), ("b", "c", "a", "b"))] * 2)
@example([StepProfile.constant("a")] * 2, 1e308, [StepProfile((1e307, 1e308), ("a", "b", "c"))] * 2)
@example([StepProfile((0.5,), ("a", "b"))] * 2, 0.0, [StepProfile((0.5,), ("b", "b"))] * 2)
@settings(deadline=None)
def test_splice_time_equals_the_sorted_build(heads, t, tails):
    h, f = GridAct(dict(zip(STATES, heads))), GridAct(dict(zip(STATES, tails)))
    assert hex_act(splice_time(h, t, f)) == hex_act(sorted_builders.splice_time(h, t, f))


def ranking_of(levels):
    """The answers on constant acts of a respondent who ranks outcomes by ``levels``."""
    return {
        (a, b): Preference.STRICTLY_PREFERS_FIRST
        if levels[a] > levels[b]
        else Preference.STRICTLY_PREFERS_SECOND
        if levels[a] < levels[b]
        else Preference.INDIFFERENT
        for a in OUTCOMES
        for b in OUTCOMES
        if a != b
    }


@pytest.mark.identity
@given(
    profiles().map(StepProfile.normalized),
    st.lists(st.integers(0, 2), min_size=3, max_size=3),
    st.integers(0, 2**32),
)
@settings(deadline=None)
def test_improved_profile_equals_the_sorted_build(row, levels, seed):
    ranking = ranking_of(dict(zip(OUTCOMES, levels)))
    better = audit._upgrades(ranking, OUTCOMES)
    rng, ref = random.Random(seed), random.Random(seed)
    got = audit._improved_profile(row, ranking, better, rng)
    want = sorted_builders.improved_profile(row, ranking, better, ref)
    assert (got is None) == (want is None)
    if got is not None:
        assert hex_row(got) == hex_row(want)
    assert rng.getstate() == ref.getstate()
