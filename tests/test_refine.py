"""The common-refinement sweep and the code it checks, against naive per-cell references.

Each reference collects every cut, then looks every row and time set up
again at the left end of each cell.  The sweep (``refinement.refine``, the
reference of the one-pass valuations) must give exactly the same cells, and
splices, pastes and the time-first value bit-identical profiles and values.
The two t-separability witnesses that ``audit._swapped_pastes`` builds from
one walk must each equal the paste of their own patches (``naive_pasted``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.acts import GridAct, StepProfile, _overlay
from dseu.audit import _swapped_pastes
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import INF, ExpMeasure, TimeInterval, TimeSet

from left_sum import left_sum
from refinement import refine

OUTCOMES = ("a", "b", "c")
STATES = ("s0", "s1", "s2")
# Shared grid points make cuts of different rows and sets coincide often.
TIMES = st.one_of(
    st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.5)),
    st.floats(min_value=1e-3, max_value=20.0),
)


@st.composite
def profiles(draw):
    cuts = sorted(set(draw(st.lists(TIMES, max_size=6))))
    outs = draw(st.lists(st.sampled_from(OUTCOMES), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return StepProfile.from_breakpoints(cuts, outs)


@st.composite
def disjoint_time_sets(draw, min_sets=0, max_sets=3):
    """Canonical, pairwise disjoint sets; some start at 0, some reach inf."""
    n = draw(st.integers(min_sets, max_sets))
    cuts = sorted(set(draw(st.lists(TIMES, max_size=8))))
    if draw(st.booleans()):
        cuts.insert(0, 0.0)
    if len(cuts) % 2:
        cuts.append(INF)
    members: list[list[float]] = [[] for _ in range(n)]
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        if n:
            members[draw(st.integers(0, n - 1))] += (lo, hi)
    return [TimeSet(tuple(bounds)) for bounds in members]


def naive_bounds(rows, time_sets):
    cuts = {b for p in rows for b in p.cuts}
    cuts |= {x for ts in time_sets for x in ts.bounds}
    return [0.0, *sorted(c for c in cuts if 0.0 < c < INF), INF]


def naive_cells(rows, time_sets):
    bounds = naive_bounds(rows, time_sets)
    return [
        (
            lo,
            hi,
            tuple(p.outcome_at(lo) for p in rows),
            tuple(ts.contains(lo) for ts in time_sets),
        )
        for lo, hi in zip(bounds, bounds[1:])
    ]


def naive_overlay(top, times, bottom):
    bounds = naive_bounds((top, bottom), (times,))
    outs = [(top if times.contains(lo) else bottom).outcome_at(lo) for lo in bounds[:-1]]
    return StepProfile(tuple(bounds[1:-1]), tuple(outs)).normalized()


def naive_pasted(background, patches):
    bounds = naive_bounds((background,), [ts for ts, _ in patches])
    outs = []
    for lo in bounds[:-1]:
        out = background.outcome_at(lo)
        for ts, patch in patches:
            if ts.contains(lo):
                out = patch
                break
        outs.append(out)
    return StepProfile(tuple(bounds[1:-1]), tuple(outs)).normalized()


def naive_dual_value(model, act):
    bounds = naive_bounds([act.row(s) for s in act.states], ())
    total = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        cell = model.discount.interval_mass(TimeInterval(lo, hi))
        mean_u = left_sum(
            model.beliefs(s) * model.utility(act.at(s, lo)) for s in act.states
        )
        total += cell * mean_u
    return total


@given(st.lists(profiles(), min_size=1, max_size=4), disjoint_time_sets())
@settings(max_examples=150, deadline=None)
def test_refine_cells_match_naive_cells(rows, time_sets):
    assert list(refine(rows, time_sets)) == naive_cells(rows, time_sets)


@given(profiles(), disjoint_time_sets(min_sets=1, max_sets=1), profiles())
@settings(max_examples=100, deadline=None)
def test_overlay_matches_per_cell_formula(top, time_sets, bottom):
    (times,) = time_sets
    assert _overlay(top, times, bottom) == naive_overlay(top, times, bottom)


@st.composite
def touching_time_sets(draw):
    """Disjoint sets from one chain of cuts with no gaps, so intervals of different sets touch."""
    cuts = sorted(set(draw(st.lists(TIMES, min_size=1, max_size=8))))
    bounds = [0.0, *cuts, INF] if draw(st.booleans()) else cuts
    members: list[list[tuple[float, float]]] = [[], []]
    for lo, hi in zip(bounds, bounds[1:]):
        members[draw(st.integers(0, 1))].append((lo, hi))
    return [TimeSet.from_pairs(pairs) for pairs in members]


@pytest.mark.identity
@given(
    profiles(),
    disjoint_time_sets(min_sets=2, max_sets=2) | touching_time_sets(),
    st.lists(st.sampled_from(OUTCOMES), min_size=2, max_size=2),
)
@settings(deadline=None)
def test_swapped_pastes_equal_one_pasted_profile_per_witness(background, time_sets, outs):
    first, second = time_sets
    better, worse = outs
    left, right = _swapped_pastes(first, second)(background, better, worse)
    assert left == naive_pasted(background, [(first, better), (second, worse)])
    assert right == naive_pasted(background, [(first, worse), (second, better)])


@given(
    st.lists(profiles(), min_size=3, max_size=3),
    st.floats(min_value=0.05, max_value=5.0),
    st.lists(st.floats(min_value=0.1, max_value=1.0), min_size=3, max_size=3),
)
@settings(max_examples=100, deadline=None)
def test_act_value_dual_matches_per_cell_formula(rows, rate, weights):
    total = sum(weights)
    model = DSEUModel(
        ExpMeasure(rate),
        UtilityModel({"a": 0.0, "b": 1.0, "c": 0.4}),
        Beliefs({s: w / total for s, w in zip(STATES, weights)}),
    )
    act = GridAct(dict(zip(STATES, rows)))
    assert model.act_value_dual(act) == naive_dual_value(model, act)
