"""Step profiles against a piecewise reference.

The reference keeps a profile as a list of ``(lo, hi, outcome)`` pieces
tiling ``[0, inf)`` and runs every operation on that list piece by piece.
The profiles, stored as cut times and outcomes, must agree with it under
``==``, and every value must agree bit for bit.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu import serialize
from dseu.acts import Event, GridAct, StepProfile, splice_event, splice_time
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel, profile_value
from dseu.measure import INF, ExpMeasure, TimeSet

from left_sum import left_sum
from level_sets import level_set

UTIL = {"a": 0.0, "b": 1.0, "c": -0.35}
STATES = ("s0", "s1", "s2")
# Shared grid points make cuts coincide often; 0 and inf give zero-width segments.
TIMES = st.one_of(
    st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.0, 3.5, INF)),
    st.floats(min_value=1e-3, max_value=20.0),
)


# -- the piecewise reference --------------------------------------------------


def ref_from_breakpoints(breakpoints, outs):
    bounds = [0.0, *breakpoints, INF]
    return [(lo, hi, x) for lo, hi, x in zip(bounds, bounds[1:], outs) if lo < hi]


def ref_normalized(pieces):
    merged = []
    for lo, hi, x in pieces:
        if merged and merged[-1][2] == x:
            merged[-1] = (merged[-1][0], hi, x)
        else:
            merged.append((lo, hi, x))
    return merged


def ref_outcome_at(pieces, t):
    return next(x for _, hi, x in pieces if t < hi)


def ref_level_set(pieces, outcome):
    return TimeSet.from_pairs((lo, hi) for lo, hi, x in pieces if x == outcome)


def ref_splice_time(head, t, tail):
    if t == 0.0:
        return ref_normalized(tail)
    before = [(lo, min(hi, t), x) for lo, hi, x in head if lo < t]
    after = [(lo + t, hi + t, x) for lo, hi, x in tail if lo + t < hi + t]
    return ref_normalized(before + after)


def ref_overlay(top, times, bottom):
    """``top`` on ``times`` and ``bottom`` elsewhere, looked up per cell."""
    bounds = {b for lo, hi, _ in top + bottom for b in (lo, hi)}
    bounds |= set(times.bounds)
    bounds = sorted(bounds)
    return ref_normalized(
        [
            (lo, hi, ref_outcome_at(top if times.contains(lo) else bottom, lo))
            for lo, hi in zip(bounds, bounds[1:])
        ]
    )


def ref_profile_value(model, pieces):
    sf = model.discount.sf
    return left_sum((sf(lo) - sf(hi)) * model.utility(x) for lo, hi, x in pieces)


def ref_act_value_dual(model, rows):
    bounds = sorted({b for pieces in rows.values() for lo, hi, _ in pieces for b in (lo, hi)})
    sf = model.discount.sf
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        mean_u = left_sum(
            model.beliefs(s) * model.utility(ref_outcome_at(rows[s], lo)) for s in rows
        )
        total += (sf(lo) - sf(hi)) * mean_u
    return total


def ref_json(pieces):
    return [[lo, "inf" if hi == INF else hi, x] for lo, hi, x in pieces]


# -- strategies ---------------------------------------------------------------


@st.composite
def breakpoint_lists(draw):
    """Sorted breakpoints, repeats allowed, with one outcome per segment."""
    breakpoints = sorted(draw(st.lists(TIMES, max_size=8)))
    n = len(breakpoints) + 1
    return breakpoints, draw(st.lists(st.sampled_from(tuple(UTIL)), min_size=n, max_size=n))


@st.composite
def time_sets(draw):
    cuts = sorted(set(draw(st.lists(TIMES, max_size=6))))
    if len(cuts) % 2:
        cuts.append(INF)
    return TimeSet.from_pairs(p for p in zip(cuts[::2], cuts[1::2]) if p[0] < p[1])


@st.composite
def models(draw):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(STATES), max_size=len(STATES)))
    return DSEUModel(
        ExpMeasure(draw(st.floats(0.1, 3.0))),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(STATES, raw)}),
    )


@pytest.mark.identity
@given(
    st.lists(breakpoint_lists(), min_size=2 * len(STATES), max_size=2 * len(STATES)),
    st.sampled_from((0.0, 0.5, 1.0, 2.0)) | st.floats(0.0, 10.0),
    st.none() | st.frozensets(st.sampled_from(STATES)),
    st.none() | time_sets(),
    models(),
)
@settings(deadline=None)
def test_flat_profiles_match_the_piecewise_reference(rows, t, event_states, event_times, model):
    profiles = [StepProfile.from_breakpoints(b, o) for b, o in rows]
    refs = [ref_from_breakpoints(b, o) for b, o in rows]
    for p, ref in zip(profiles, refs):
        assert list(p.segments()) == ref
        assert list(p.normalized().segments()) == ref_normalized(ref)
        for lo, hi, _ in ref:
            for at in (lo, 0.5 * (lo + hi) if hi < INF else lo + 1.0):
                assert p.outcome_at(at) == ref_outcome_at(ref, at)
        for x in UTIL:
            assert level_set(p, x) == ref_level_set(ref, x)
        assert profile_value(model.discount, model.utility, p) == ref_profile_value(model, ref)
        doc = serialize.profile_to_json(p)
        assert doc == ref_json(ref)
        assert serialize.profile_from_json(json.loads(json.dumps(doc))) == p

    f, g = GridAct(dict(zip(STATES, profiles))), GridAct(dict(zip(STATES, profiles[3:])))
    f_ref, g_ref = dict(zip(STATES, refs)), dict(zip(STATES, refs[3:]))
    assert model.act_value_dual(f) == ref_act_value_dual(model, f_ref)

    spliced = splice_time(f, t, g)
    for s in STATES:
        assert list(spliced.row(s).segments()) == ref_splice_time(f_ref[s], t, g_ref[s])

    event = Event(states=event_states, times=event_times)
    times = TimeSet.full() if event_times is None else event_times
    spliced = splice_event(f, event, g)
    for s in STATES:
        on = times if event.covers_state(s) else TimeSet.empty()
        assert list(spliced.row(s).segments()) == ref_overlay(f_ref[s], on, g_ref[s])
