"""Flat time sets against the interval-object sets they replaced.

``interval_sets.RefTimeSet`` keeps a set as a tuple of validated intervals.
On random pair lists, some touching, some starting at 0 and some reaching
``inf``, the flat ``TimeSet`` must build the same sets bit for bit, answer
every operation and ``ExpMeasure.mass`` with the same floats, and raise
``ValueError`` on the same inputs (with the same message in ``from_pairs``).
"""

import math
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dseu.measure import INF, ExpMeasure, TimeSet

from interval_sets import RefInterval, RefTimeSet, ref_mass

# Shared grid points make intervals touch and overlap often; 0 and inf are ends.
TIMES = st.one_of(
    st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 2.0, 3.5, INF)),
    st.floats(min_value=0.0, max_value=20.0),
)
# Bounds no interval may have, mixed in with valid ones.
ANY_TIMES = TIMES | st.sampled_from((-1.0, -INF, math.nan))
SHIFTS = TIMES | st.floats(min_value=0.0, max_value=1e20) | st.sampled_from((-1.0, math.nan))


@st.composite
def valid_pairs(draw):
    pairs = draw(st.lists(st.tuples(TIMES, TIMES), max_size=6))
    return [(lo, hi) for lo, hi in map(sorted, pairs) if lo < hi]


def bits(ts: TimeSet) -> list[str]:
    return [x.hex() for x in ts.bounds]


def ref_bits(ref: RefTimeSet) -> list[str]:
    return [x.hex() for lo, hi in ref.pairs() for x in (lo, hi)]


@pytest.mark.identity
@given(st.lists(st.tuples(ANY_TIMES, ANY_TIMES), max_size=6))
def test_from_pairs_builds_and_rejects_as_the_reference(pairs):
    try:
        want = RefTimeSet.from_pairs(pairs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            TimeSet.from_pairs(pairs)
        return
    assert bits(TimeSet.from_pairs(pairs)) == ref_bits(want)


@pytest.mark.identity
@given(st.lists(st.tuples(ANY_TIMES, ANY_TIMES), max_size=5), st.booleans())
def test_constructor_accepts_what_the_reference_accepts(pairs, ordered):
    bounds = [x for pair in pairs for x in pair]
    if ordered:
        bounds.sort()
    try:
        want = RefTimeSet(tuple(map(RefInterval, bounds[::2], bounds[1::2])))
    except ValueError:
        with pytest.raises(ValueError):
            TimeSet(tuple(bounds))
        return
    assert bits(TimeSet(tuple(bounds))) == ref_bits(want)


@pytest.mark.identity
@given(
    valid_pairs(),
    valid_pairs(),
    SHIFTS,
    st.lists(ANY_TIMES, max_size=6),
    st.floats(min_value=0.05, max_value=5.0),
)
def test_operations_match_the_interval_reference(a_pairs, b_pairs, t, probes, rate):
    a, ref_a = TimeSet.from_pairs(a_pairs), RefTimeSet.from_pairs(a_pairs)
    b, ref_b = TimeSet.from_pairs(b_pairs), RefTimeSet.from_pairs(b_pairs)
    assert bits(a) == ref_bits(ref_a)
    assert list(a) == ref_a.pairs()
    assert a.is_empty == ref_a.is_empty
    assert bits(a.union(b)) == ref_bits(ref_a.union(ref_b))
    assert bits(a.intersect(b)) == ref_bits(ref_a.intersect(ref_b))
    assert bits(b.intersect(a)) == ref_bits(ref_b.intersect(ref_a))
    assert bits(a.complement()) == ref_bits(ref_a.complement())
    try:
        shifted = ref_a.shift(t)
    except ValueError:
        with pytest.raises(ValueError):
            a.shift(t)
    else:
        assert bits(a.shift(t)) == ref_bits(shifted)
    for x in (*probes, *a.bounds, *b.bounds):
        assert a.contains(x) == ref_a.contains(x)
    m = ExpMeasure(rate)
    for new, ref in ((a, ref_a), (a.complement(), ref_a.complement())):
        assert repr(m.mass(new)) == repr(ref_mass(m, ref))
