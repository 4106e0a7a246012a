"""Exponential-measure arithmetic against quadrature and random properties."""

import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dseu import equivalents
from dseu.measure import CEILING_MASS, INF, ExpMeasure, TimeInterval, TimeSet


def quad_mass(rate: float, sets: list[tuple[float, float]], cells: int = 1_000_000) -> float:
    """Midpoint quadrature of the density rate*exp(-rate*t) over finite intervals."""
    total = 0.0
    for lo, hi in sets:
        ts = np.linspace(lo, hi, cells + 1)
        mids = 0.5 * (ts[:-1] + ts[1:])
        total += float(np.sum(rate * np.exp(-rate * mids)) * (hi - lo) / cells)
    return total


class TestIntervalAndSet:
    def test_interval_rejects_degenerate_and_negative(self):
        with pytest.raises(ValueError):
            TimeInterval(1.0, 1.0)
        with pytest.raises(ValueError):
            TimeInterval(-0.5, 1.0)
        with pytest.raises(ValueError):
            TimeInterval(INF, INF)

    def test_canonicalization_merges_touching(self):
        ts = TimeSet.from_pairs([(1.0, 2.0), (0.0, 1.0), (3.0, INF)])
        assert ts.bounds == (0.0, 2.0, 3.0, INF)

    def test_strict_constructor_rejects_touching(self):
        with pytest.raises(ValueError):
            TimeSet((0.0, 1.0, 1.0, 2.0))

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, 1.0, 2.0), (-1.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (0.0, INF, 5.0, 6.0), (2.0, 1.0)],
    )
    def test_strict_constructor_rejects_bad_bounds(self, bounds):
        with pytest.raises(ValueError):
            TimeSet(bounds)

    def test_complement_roundtrip(self):
        ts = TimeSet.from_pairs([(0.5, 1.0), (2.0, 4.0)])
        comp = ts.complement()
        assert comp.bounds == (0.0, 0.5, 1.0, 2.0, 4.0, INF)
        assert comp.complement() == ts
        assert ts.union(comp) == TimeSet.full()
        assert ts.intersect(comp).is_empty

    def test_intersection(self):
        a = TimeSet.from_pairs([(0.0, 2.0), (3.0, 5.0)])
        b = TimeSet.from_pairs([(1.0, 4.0)])
        assert a.intersect(b) == TimeSet.from_pairs([(1.0, 2.0), (3.0, 4.0)])

    def test_truth_is_nonemptiness(self):
        assert not TimeSet.empty()
        assert TimeSet.full()


class TestCdf:
    def test_half_life(self):
        assert ExpMeasure(math.log(2.0)).cdf(1.0) == 0.5

    def test_at_zero(self):
        for rate in (0.1, 1.0, 7.3):
            assert ExpMeasure(rate).cdf(0.0) == 0.0

    def test_against_quadrature(self):
        # oracle: quad_mass(1.0, [(0, 2)]) = 0.8646647167633872 (1e6 midpoint cells)
        got = ExpMeasure(1.0).cdf(2.0)
        assert got == pytest.approx(0.8646647167633873, abs=1e-15)
        assert abs(got - quad_mass(1.0, [(0.0, 2.0)])) <= 1e-9

    def test_rejects_negative_and_infinite(self):
        m = ExpMeasure(1.0)
        with pytest.raises(ValueError):
            m.cdf(-1e-9)
        with pytest.raises(ValueError):
            m.cdf(INF)

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            ExpMeasure(0.0)
        with pytest.raises(ValueError):
            ExpMeasure(-1.0)
        with pytest.raises(ValueError):
            ExpMeasure(INF)


class TestMass:
    def test_total_mass(self):
        assert ExpMeasure(1.0).mass(TimeSet.full()) == 1.0

    def test_half_life_tail(self):
        assert ExpMeasure(math.log(2.0)).mass(TimeSet.from_pairs([(1.0, INF)])) == 0.5

    def test_union_against_quadrature(self):
        # (1 - e^-0.5) + (e^-1 - e^-2) = 0.6260134982221961, cross-checked by
        # quadrature of the density over both intervals.
        ts = TimeSet.from_pairs([(0.0, 0.5), (1.0, 2.0)])
        got = ExpMeasure(1.0).mass(ts)
        assert got == pytest.approx(0.6260134982221961, abs=1e-15)
        assert abs(got - quad_mass(1.0, [(0.0, 0.5), (1.0, 2.0)])) <= 1e-9

    def test_empty(self):
        assert ExpMeasure(2.0).mass(TimeSet.empty()) == 0.0


class TestQuantile:
    def test_zero(self):
        assert ExpMeasure(0.7).quantile(0.0) == 0.0

    def test_half_life(self):
        assert ExpMeasure(math.log(2.0)).quantile(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_roundtrip_value(self):
        # -ln(0.7) = 0.35667494393873245; cdf must invert it.
        m = ExpMeasure(1.0)
        t = m.quantile(0.3)
        assert t == pytest.approx(0.35667494393873245, abs=1e-15)
        assert m.cdf(t) == pytest.approx(0.3, abs=1e-12)

    def test_range_errors(self):
        m = ExpMeasure(1.0)
        with pytest.raises(ValueError):
            m.quantile(1.0)
        with pytest.raises(ValueError):
            m.quantile(-0.1)


class TestSearchCeiling:
    """The search ceiling each rate computes once: ``quantile(CEILING_MASS)``."""

    @given(st.floats(1e-300, 1e300))
    def test_equals_the_quantile_bit_for_bit(self, rate):
        m = ExpMeasure(rate)
        assert m._ceiling.hex() == m.quantile(CEILING_MASS).hex()

    def test_computed_once_per_measure(self, monkeypatch):
        calls = []
        quantile = ExpMeasure.quantile
        monkeypatch.setattr(ExpMeasure, "quantile", lambda m, p: calls.append(p) or quantile(m, p))
        m = ExpMeasure(1.3)
        assert m._ceiling == m._ceiling == quantile(m, CEILING_MASS)
        assert calls == [CEILING_MASS]
        assert equivalents.CEILING_MASS is CEILING_MASS

    def test_equality_hash_repr_replace_and_pickle_ignore_it(self):
        m, fresh = ExpMeasure(1.3), ExpMeasure(1.3)
        ceiling = m._ceiling
        assert m == fresh and hash(m) == hash(fresh) and repr(m) == repr(fresh) == "ExpMeasure(rate=1.3)"
        assert [f.name for f in dataclasses.fields(m)] == ["rate"]
        other = dataclasses.replace(m, rate=2.6)
        assert other._ceiling == ExpMeasure(2.6).quantile(CEILING_MASS) == 0.5 * ceiling
        for kept in (m, fresh):
            back = pickle.loads(pickle.dumps(kept))
            assert back == m and back._ceiling == ceiling
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.rate = 2.0


def random_time_set(rng: random.Random, bound: float = 20.0) -> TimeSet:
    n = rng.randint(0, 4)
    cuts = sorted(rng.uniform(0.0, bound) for _ in range(2 * n))
    pairs = [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi]
    if pairs and rng.random() < 0.3:
        pairs[-1] = (pairs[-1][0], INF)
    return TimeSet.from_pairs(pairs)


class TestProperties:
    def test_finite_additivity_on_random_pairs(self):
        rng = random.Random(7)
        m = ExpMeasure(0.8)
        for _ in range(1000):
            a = random_time_set(rng)
            b = random_time_set(rng).intersect(a.complement())
            assert a.intersect(b).is_empty
            assert m.mass(a.union(b)) == pytest.approx(
                m.mass(a) + m.mass(b), abs=1e-14
            )

    def test_shift_identity_on_random_sets(self):
        rng = random.Random(11)
        for _ in range(1000):
            rate = rng.uniform(0.2, 3.0)
            m = ExpMeasure(rate)
            a = random_time_set(rng)
            t = rng.uniform(0.0, 5.0)
            assert m.mass(a.shift(t)) == pytest.approx(
                m.sf(t) * m.mass(a), abs=1e-14
            )

    def test_cdf_quantile_roundtrip_grid(self):
        m = ExpMeasure(1.3)
        for k in range(1000):
            p = k / 1000 * (1.0 - 1e-9)
            assert abs(m.cdf(m.quantile(p)) - p) <= 1e-12

    @given(
        rate=st.floats(0.05, 20.0),
        p=st.floats(0.0, 1.0 - 1e-9),
    )
    @settings(max_examples=200)
    def test_cdf_quantile_roundtrip_hypothesis(self, rate, p):
        m = ExpMeasure(rate)
        assert abs(m.cdf(m.quantile(p)) - p) <= 1e-12


class TestSplit:
    def test_identity_weight(self):
        iv = TimeInterval(0.3, 4.0)
        assert ExpMeasure(1.0).split(iv, (1.0,)) == [iv]

    def test_halves_of_unit_prefix(self):
        m = ExpMeasure(math.log(2.0))
        parts = m.split(TimeInterval(0.0, 1.0), (0.5, 0.5))
        assert len(parts) == 2
        # mass([0,1)) = 0.5, so the inner boundary is the 0.25-quantile
        assert parts[0].hi == pytest.approx(m.quantile(0.25), abs=1e-15)
        for part in parts:
            assert m.mass(part) == pytest.approx(0.25, abs=1e-12)

    def test_tail_interval(self):
        m = ExpMeasure(1.0)
        parts = m.split(TimeInterval(1.0, INF), (0.3, 0.7))
        assert len(parts) == 2
        assert m.mass(parts[0]) == pytest.approx(0.3 * math.exp(-1.0), abs=1e-12)
        assert m.mass(parts[1]) == pytest.approx(0.7 * math.exp(-1.0), abs=1e-12)
        assert parts[1].hi == INF

    def test_zero_weights_dropped(self):
        m = ExpMeasure(1.0)
        parts = m.split(TimeInterval(0.0, 2.0), (0.0, 1.0, 0.0))
        assert parts == [TimeInterval(0.0, 2.0)]

    def test_one_weight_on_a_mass_zero_interval_keeps_it_whole(self):
        # Both survivals underflow to 0, so the interval has no mass to split.
        iv = TimeInterval(800.0, 900.0)
        assert ExpMeasure(1.0).split(iv, (1.0,)) == [iv]

    def test_bad_weight_sum(self):
        with pytest.raises(ValueError):
            ExpMeasure(1.0).split(TimeInterval(0.0, 1.0), (0.5, 0.4))

    @pytest.mark.parametrize("weights", [(-0.5, 1.5), (math.nan, 1.0)])
    def test_negative_or_nan_weight_is_rejected(self, weights):
        with pytest.raises(ValueError, match="^weights must be non-negative"):
            ExpMeasure(1.0).split(TimeInterval(0.0, 1.0), weights)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
    def test_prefix_fraction_outside_the_unit_interval_is_rejected(self, fraction):
        with pytest.raises(ValueError, match="^fraction must lie in \\[0, 1\\]"):
            ExpMeasure(1.0).prefix_fraction(TimeInterval(0.0, 1.0), fraction)

    def test_random_splits_tile_and_reproduce_weights(self):
        rng = random.Random(3)
        for _ in range(300):
            m = ExpMeasure(rng.uniform(0.2, 3.0))
            lo = rng.uniform(0.0, 3.0)
            iv = TimeInterval(lo, lo + rng.uniform(0.1, 5.0)) if rng.random() < 0.7 else TimeInterval(lo, INF)
            k = rng.randint(1, 5)
            raw = [rng.uniform(0.05, 1.0) for _ in range(k)]
            weights = [w / sum(raw) for w in raw]
            parts = m.split(iv, weights)
            assert parts[0].lo == iv.lo
            assert parts[-1].hi == iv.hi
            for a, b in zip(parts, parts[1:]):
                assert a.hi == b.lo
            total = m.mass(iv)
            for part, w in zip(parts, weights):
                assert m.mass(part) == pytest.approx(w * total, abs=1e-12)

    def test_zero_mass_interval_splits_degenerately(self):
        m = ExpMeasure(1.0)
        parts = m.split(TimeInterval(800.0, INF), (0.4, 0.6))
        assert len(parts) == 2
        assert parts[0].lo == 800.0
        assert parts[-1].hi == INF
