"""Row grouping and the two-act value memo against per-row references.

The references value every row of an act separately, as the oracles did
before rows were grouped and values remembered.  The fast paths must give
exactly the same floats (``==``), whether the rows of an act are one shared
object (valued from that row alone), equal but distinct objects, or all
different.
"""

import math
from collections.abc import Mapping
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu.acts import GridAct, StepProfile
from dseu.equivalents import time_equivalent_bisect
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel, profile_value
from dseu.measure import ExpMeasure
from dseu.oracles import (
    Capacity,
    ChoquetOracle,
    SEUOracle,
    WidenedOracle,
    choquet_value,
    subsets,
)

from left_sum import left_sum

UTIL = {"a": 0.0, "b": 1.0, "c": -0.5, "d": 2.25}
STATES = ("s0", "s1", "s2", "s3")
TIMES = st.one_of(
    st.sampled_from((0.25, 0.5, 1.0, 2.0, 3.5)),
    st.floats(min_value=1e-3, max_value=20.0),
)
# The identity tests run 150 examples, or the loaded profile's count when larger.
IDENTITY_EXAMPLES = max(150, settings.default.max_examples)


@st.composite
def profiles(draw):
    cuts = sorted(set(draw(st.lists(TIMES, max_size=6))))
    n = len(cuts) + 1
    outs = draw(st.lists(st.sampled_from(tuple(UTIL)), min_size=n, max_size=n))
    return StepProfile.from_breakpoints(cuts, outs)


@st.composite
def acts(draw):
    """Rows drawn from a small pool: shared, copied (equal but distinct) or fresh."""
    pool = draw(st.lists(profiles(), min_size=1, max_size=len(STATES)))
    rows = {}
    for s in STATES:
        p = pool[draw(st.integers(0, len(pool) - 1))]
        rows[s] = StepProfile(p.cuts, p.outs) if draw(st.booleans()) else p
    return GridAct(rows)


@st.composite
def models(draw):
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(STATES), max_size=len(STATES)))
    return DSEUModel(
        ExpMeasure(draw(st.floats(0.1, 3.0))),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(STATES, raw)}),
    )


def ref_seu(model: DSEUModel, f: GridAct) -> float:
    return left_sum(
        model.beliefs(s) * profile_value(model.discount, model.utility, f.row(s))
        for s in f.states
    )


def ref_choquet(oracle: ChoquetOracle, f: GridAct) -> float:
    rows = {s: profile_value(oracle.discount, oracle.utility, f.row(s)) for s in f.states}
    return choquet_value(oracle.capacity, rows)


@st.composite
def oracles_with_reference(draw):
    """``(make, reference)``: a fresh-oracle factory and its per-row value."""
    model = draw(models())
    kind = draw(st.sampled_from(("seu", "choquet")))
    band = draw(st.one_of(st.none(), st.floats(0.0, 1.0)))
    if kind == "choquet":
        capacity = Capacity.epsilon_contamination(model.beliefs, draw(st.floats(0.0, 0.5)))
        base = partial(ChoquetOracle, model.discount, model.utility, capacity)
        reference = partial(ref_choquet, base())
    else:
        base = partial(SEUOracle, model)
        reference = partial(ref_seu, model)
    if band is None:
        return base, reference
    return (lambda: WidenedOracle(base(), band)), reference


LABELS = ("s0", "s1", "s2", "s10", "b", "a", "Z")


@st.composite
def deterministic_cases(draw):
    """A model, a capacity, an act paying one stream in every state and how it was built.

    The beliefs list the states in one order and the act in another; labels
    sort unlike either.  The act is built by ``GridAct.deterministic`` (which
    records its one row) or from a mapping whose rows are one shared object
    (by ``dict.fromkeys`` or by a loop), equal but distinct copies, or a mix
    of the two; a null state is drawn half the time, and the capacity is
    additive, contaminated or a power of the beliefs.
    """
    labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=6, unique=True))
    raw = draw(st.lists(st.floats(0.05, 1.0), min_size=len(labels), max_size=len(labels)))
    if len(labels) > 1 and draw(st.booleans()):
        raw[draw(st.integers(0, len(labels) - 1))] = 0.0
    model = DSEUModel(
        ExpMeasure(draw(st.floats(0.1, 3.0))),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(labels, raw)}),
    )
    if draw(st.booleans()):
        capacity = Capacity.epsilon_contamination(model.beliefs, draw(st.floats(0.0, 0.5)))
    else:
        power = draw(st.sampled_from((0.5, 2.0, 3.0)))
        weights = {
            c: sum(model.beliefs(s) for s in labels if s in c) ** power for c in subsets(labels)
        }
        weights[frozenset(labels)] = 1.0
        capacity = Capacity(tuple(labels), weights)
    row = draw(profiles())
    order = draw(st.permutations(labels))
    built = draw(st.sampled_from(("deterministic", "fromkeys", "shared", "copies", "mixed")))
    if built == "deterministic":
        return model, capacity, GridAct.deterministic(order, row), built
    if built == "fromkeys":
        return model, capacity, GridAct(dict.fromkeys(order, row)), built
    rows = {}
    for s in order:
        copy = built == "copies" or (built == "mixed" and draw(st.booleans()))
        rows[s] = StepProfile(row.cuts, row.outs) if copy else row
    return model, capacity, GridAct(rows), built


@pytest.mark.identity
@settings(max_examples=IDENTITY_EXAMPLES, deadline=None)
@given(deterministic_cases())
def test_deterministic_act_values_equal_the_per_row_reference(case):
    model, capacity, f, built = case
    # Only GridAct.deterministic records a row; an act built from a mapping never does.
    recorded = f.common_row
    assert (recorded is not None) == (built == "deterministic")
    assert recorded is None or all(p is recorded for p in f.profiles.values())
    assert model.act_value(f) == ref_seu(model, f)
    assert SEUOracle(model).value(f) == ref_seu(model, f)
    choquet = ChoquetOracle(model.discount, model.utility, capacity)
    assert choquet.value(f) == ref_choquet(choquet, f)


def memo_of(oracle):
    return oracle.inner._memo if isinstance(oracle, WidenedOracle) else oracle._memo


@settings(max_examples=150, deadline=None)
@given(models(), acts())
def test_act_value_equals_the_per_row_sum(model, f):
    assert model.act_value(f) == ref_seu(model, f)


@pytest.mark.identity
@settings(max_examples=IDENTITY_EXAMPLES, deadline=None)
@given(oracles_with_reference(), acts())
def test_oracle_value_equals_the_per_row_reference(made, f):
    make, reference = made
    oracle = make()
    assert oracle.value(f) == reference(f)
    assert oracle.value(f) == reference(f)


@settings(max_examples=100, deadline=None)
@given(
    oracles_with_reference(),
    st.lists(acts(), min_size=2, max_size=4),
    st.lists(st.integers(0, 3), min_size=1, max_size=12),
    st.booleans(),
)
def test_repeated_acts_value_as_on_a_fresh_oracle(made, pool, order, with_compare):
    make, _ = made
    oracle = make()
    sequence = [pool[i % len(pool)] for i in order]
    for f, g in zip(sequence, sequence[1:] + sequence[:1]):
        assert oracle.value(f) == make().value(f)
        if with_compare:
            assert oracle.compare(f, g) is make().compare(f, g)
        assert len(memo_of(oracle)) <= 2


@pytest.mark.parametrize("anchors", [True, False])
def test_the_fixed_side_of_a_search_is_valued_once(anchors, monkeypatch):
    valued = []
    act_value = DSEUModel.act_value

    def counted(self, f):
        valued.append(f)
        return act_value(self, f)

    monkeypatch.setattr(DSEUModel, "act_value", counted)
    model = DSEUModel(ExpMeasure(1.0), UtilityModel(dict(UTIL)), Beliefs.uniform(STATES))
    oracle = SEUOracle(model)
    fixed = GridAct.bet(STATES, {"s0"}, "b", "a")
    for t in (1.0, 0.5, 0.75, 0.625):
        probe = GridAct.deterministic(STATES, StepProfile.before_after("b", t, "a"))
        oracle.compare(probe, fixed)
        assert len(oracle._memo) == 2
    if anchors:
        # A search's end queries come after its probes, the top one first.
        oracle.compare(GridAct.constant(STATES, "d"), fixed)
        oracle.compare(fixed, GridAct.constant(STATES, "c"))
    assert sum(f is fixed for f in valued) == 1
    assert len(valued) == 4 + 2 * anchors + 1


@pytest.mark.parametrize("hinted", [False, True])
def test_consecutive_searches_value_each_bet_once(hinted, monkeypatch):
    # A memo that keeps the previous search's bet in a slot of its own
    # leaves one slot for the next bet and each probe in turn, and values
    # that bet again on every query.
    valued = []
    act_value = DSEUModel.act_value

    def counted(self, f):
        valued.append(f)
        return act_value(self, f)

    monkeypatch.setattr(DSEUModel, "act_value", counted)
    model = DSEUModel(ExpMeasure(1.0), UtilityModel(dict(UTIL)), Beliefs.uniform(STATES))
    oracle = SEUOracle(model)
    events = ({"s0"}, {"s0", "s1"}, {"s2"})
    bets = [GridAct.bet(STATES, event, "b", "a") for event in events]
    for event, bet in zip(events, bets):
        # Uniform beliefs at rate 1: the bet's time equivalent is -log(1 - |E| / n).
        hint = -math.log1p(-len(event) / len(STATES)) if hinted else None
        time_equivalent_bisect(oracle, bet, "b", "a", rate=model.discount, hint=hint)
    assert [sum(f is bet for f in valued) for bet in bets] == [1, 1, 1]


class FrozenMap(Mapping):
    """Hashable read-only mapping, so that a whole model can be hashed."""

    def __init__(self, items):
        self._d = dict(items)

    def __getitem__(self, key):
        return self._d[key]

    def __iter__(self):
        return iter(self._d)

    def __len__(self):
        return len(self._d)

    def __hash__(self):
        return hash(frozenset(self._d.items()))


def test_the_memo_is_not_part_of_equality_hash_or_repr():
    model = DSEUModel(
        ExpMeasure(0.7),
        UtilityModel(FrozenMap(UTIL)),
        Beliefs(FrozenMap(Beliefs.uniform(STATES).probs)),
    )
    capacity = Capacity.epsilon_contamination(model.beliefs, 0.2)
    choquet = partial(ChoquetOracle, model.discount, model.utility, capacity)
    f = GridAct.bet(STATES, {"s1", "s2"}, "d", "c")
    g = GridAct.constant(STATES, "b")
    pairs = [
        (SEUOracle(model), SEUOracle(model)),
        (choquet(), choquet()),
    ]
    seu, other = pairs[0]
    hashed = hash(seu)
    assert hash(other) == hashed
    for used, fresh in pairs:
        before = repr(used)
        assert used == fresh
        used.compare(f, g)
        assert memo_of(used) and not memo_of(fresh)
        assert used == fresh and repr(used) == repr(fresh) == before
    assert hash(seu) == hash(other) == hashed
