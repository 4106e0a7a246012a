"""Pinned row-valuation counts of the simulated oracles; no timing.

Every row valuation goes through ``evaluate.profile_value``, which is
counted at both of its binding sites.  A change that values shared rows
again, or forgets the fixed side of a search, changes these exact counts.
"""

import random

import pytest

from dseu import evaluate, oracles
from dseu.acts import GridAct, StepProfile
from dseu.elicitation import run_session
from dseu.equivalents import time_equivalent_bisect
from dseu.evaluate import Beliefs, DSEUModel, UtilityModel
from dseu.measure import ExpMeasure
from dseu.oracles import CountingOracle, SEUOracle

UTIL = {"hi": 1.0, "mid": 0.4, "lo": 0.0}


@pytest.fixture
def rows(monkeypatch):
    """Every profile valued, in order."""
    valued = []
    original = evaluate.profile_value

    def counting(discount, utility, profile):
        valued.append(profile)
        return original(discount, utility, profile)

    monkeypatch.setattr(evaluate, "profile_value", counting)
    monkeypatch.setattr(oracles, "profile_value", counting)
    return valued


def model(states, rate=1.3):
    rng = random.Random(len(states))
    raw = [rng.uniform(0.5, 1.5) for _ in states]
    return DSEUModel(
        ExpMeasure(rate),
        UtilityModel(dict(UTIL)),
        Beliefs({s: w / sum(raw) for s, w in zip(states, raw)}),
    )


def test_session_values_at_most_three_rows_per_query(rows, monkeypatch):
    per_query = []
    compare = SEUOracle.compare

    def counted(self, f, g):
        before = len(rows)
        answer = compare(self, f, g)
        per_query.append(len(rows) - before)
        return answer

    monkeypatch.setattr(SEUOracle, "compare", counted)
    states = tuple(f"s{i}" for i in range(6))
    report = run_session(SEUOracle(model(states)), "hi", "lo")
    assert report.query_count == len(per_query) == 300
    # A bet has two distinct rows and a prefix act one; the bet of each
    # search is valued once, at its first comparison.
    assert max(per_query) == 3
    assert len(rows) == 455


def test_bisection_values_each_row_of_the_fixed_act_once(rows):
    rng = random.Random(500)
    states = ("a", "b", "c")

    def row():
        cuts = sorted(rng.uniform(0.0, 8.0) for _ in range(499))
        return StepProfile.from_breakpoints(cuts, [rng.choice(list(UTIL)) for _ in range(500)])

    m = model(states)
    f = GridAct({s: row() for s in states})
    assert all(len(f.row(s).outs) > 300 for s in states)
    oracle = CountingOracle(SEUOracle(m))
    te = time_equivalent_bisect(oracle, f, "hi", "lo", rate=m.discount)
    assert [sum(p is f.row(s) for p in rows) for s in states] == [1, 1, 1]
    # Besides those, one row per query: each probe is deterministic and
    # meets the act in exactly one query; the probes imply both end queries.
    assert oracle.count == 31
    assert len(rows) == 3 + oracle.count
    assert te.t is not None
