"""Closed-form arithmetic for the exponential measure on time.

The measure puts mass ``1 - exp(-rate * t)`` on the prefix ``[0, t)`` and is
represented by its rate alone.  Sets of times are finite disjoint unions of
half-open intervals ``[lo, hi)`` where ``hi`` may be ``math.inf``; with that
restriction every mass, quantile, shift, and proportional split has an exact
closed form, so no numerical integration happens anywhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

INF = math.inf


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval ``[lo, hi)`` with ``0 <= lo < hi <= inf``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _require_finite("interval lower bound", self.lo)
        if self.lo < 0:
            raise ValueError(f"interval lower bound must be >= 0, got {self.lo}")
        if math.isnan(self.hi):
            raise ValueError("interval upper bound is NaN")
        if not self.lo < self.hi:
            raise ValueError(f"empty or inverted interval [{self.lo}, {self.hi})")

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.hi)

    def shift(self, t: float) -> TimeInterval:
        return TimeInterval(self.lo + t, self.hi + t)

    def contains(self, t: float) -> bool:
        return self.lo <= t < self.hi

    def intersect(self, other: TimeInterval) -> TimeInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return TimeInterval(lo, hi) if lo < hi else None


@dataclass(frozen=True)
class TimeSet:
    """Finite disjoint union of half-open intervals, kept in canonical form.

    Canonical means sorted by lower bound with a strict gap between
    consecutive intervals (touching intervals are merged).  The empty tuple
    is the empty set.  Use :meth:`of` to build one from arbitrary intervals;
    the bare constructor validates canonicity instead of repairing it.
    """

    intervals: tuple[TimeInterval, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not a.hi < b.lo:
                raise ValueError(
                    f"intervals not canonical: [{a.lo},{a.hi}) then [{b.lo},{b.hi})"
                )

    @classmethod
    def of(cls, intervals: Iterable[TimeInterval]) -> TimeSet:
        """Union of arbitrary intervals, canonicalized."""
        items = sorted(intervals, key=lambda iv: iv.lo)
        merged: list[TimeInterval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                last = merged.pop()
                merged.append(TimeInterval(last.lo, max(last.hi, iv.hi)))
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> TimeSet:
        return cls.of(TimeInterval(lo, hi) for lo, hi in pairs)

    @classmethod
    def empty(cls) -> TimeSet:
        return cls(())

    @classmethod
    def full(cls) -> TimeSet:
        return cls((TimeInterval(0.0, INF),))

    def __iter__(self) -> Iterator[TimeInterval]:
        return iter(self.intervals)

    def __bool__(self) -> bool:
        return bool(self.intervals)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t: float) -> bool:
        return any(iv.contains(t) for iv in self.intervals)

    def shift(self, t: float) -> TimeSet:
        if t < 0:
            raise ValueError(f"shift must be >= 0, got {t}")
        return TimeSet(tuple(iv.shift(t) for iv in self.intervals))

    def union(self, other: TimeSet) -> TimeSet:
        return TimeSet.of((*self.intervals, *other.intervals))

    def intersect(self, other: TimeSet) -> TimeSet:
        out = []
        for a in self.intervals:
            for b in other.intervals:
                if b.lo >= a.hi:
                    break
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return TimeSet(tuple(out))

    def complement(self) -> TimeSet:
        """Complement within the whole horizon ``[0, inf)``."""
        gaps: list[TimeInterval] = []
        cursor = 0.0
        for iv in self.intervals:
            if cursor < iv.lo:
                gaps.append(TimeInterval(cursor, iv.lo))
            cursor = iv.hi
        if cursor < INF:
            gaps.append(TimeInterval(cursor, INF))
        return TimeSet(tuple(gaps))


@dataclass(frozen=True)
class ExpMeasure:
    """The discount measure with survival function ``exp(-rate * t)``."""

    rate: float

    def __post_init__(self) -> None:
        _require_finite("rate", self.rate)
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    @property
    def half_life(self) -> float:
        """Time at which the remaining tail has mass one half."""
        return math.log(2.0) / self.rate

    def sf(self, t: float) -> float:
        """Tail mass of ``[t, inf)``; accepts ``t = inf`` (mass 0)."""
        return math.exp(-self.rate * t)

    def cdf(self, t: float) -> float:
        """Mass of the prefix ``[0, t)``."""
        if math.isnan(t) or t < 0:
            raise ValueError(f"time must be >= 0, got {t!r}")
        if math.isinf(t):
            raise ValueError("cdf expects a finite time; the prefix mass sup is 1")
        return -math.expm1(-self.rate * t)

    def quantile(self, p: float) -> float:
        """Time ``t`` with prefix mass exactly ``p``; requires ``0 <= p < 1``."""
        if math.isnan(p) or p < 0:
            raise ValueError(f"mass must be >= 0, got {p!r}")
        if p >= 1:
            raise ValueError(f"prefix mass never attains {p}; it is bounded by 1")
        return -math.log1p(-p) / self.rate

    def interval_mass(self, iv: TimeInterval) -> float:
        return self.sf(iv.lo) - self.sf(iv.hi)

    def mass(self, a: TimeSet | TimeInterval) -> float:
        if isinstance(a, TimeInterval):
            return self.interval_mass(a)
        return sum(self.interval_mass(iv) for iv in a.intervals)

    def split(
        self, iv: TimeInterval, weights: Sequence[float]
    ) -> list[TimeInterval]:
        """Partition ``iv`` into consecutive pieces with given mass shares.

        Piece ``k`` has measure ``weights[k] * mass(iv)``.  Weights must be
        non-negative and sum to 1 within 1e-12; zero-weight pieces are
        dropped from the result, so the returned intervals tile ``iv``.
        """
        if any(w < 0 or math.isnan(w) for w in weights):
            raise ValueError(f"weights must be non-negative, got {list(weights)}")
        total = sum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")
        positive = [w for w in weights if w > 0.0]
        s_lo = self.sf(iv.lo)
        total_mass = s_lo - self.sf(iv.hi)
        if total_mass <= 0.0:
            return self._split_degenerate(iv, len(positive))
        bounds = [iv.lo]
        cumulative = 0.0
        for w in positive[:-1]:
            cumulative += w
            survival = s_lo - cumulative * total_mass
            if survival <= 0.0:
                bound = iv.hi
            else:
                bound = min(-math.log(survival) / self.rate, iv.hi)
            # The exp/log round trip may regress by an ulp; keep bounds strict.
            if bound <= bounds[-1]:
                raise ValueError(
                    f"weight {w!r} is below float resolution inside [{iv.lo}, {iv.hi})"
                )
            bounds.append(bound)
        if bounds[-1] >= iv.hi:
            raise ValueError("weights exhaust the interval before its end")
        bounds.append(iv.hi)
        return [TimeInterval(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def _split_degenerate(self, iv: TimeInterval, n: int) -> list[TimeInterval]:
        """Tile a mass-zero interval into ``n`` pieces (any tiling is exact)."""
        if n <= 1:
            return [iv]
        if iv.bounded:
            width = (iv.hi - iv.lo) / n
            bounds = [iv.lo + k * width for k in range(n)]
        else:
            bounds = [iv.lo + float(k) for k in range(n)]
        bounds.append(iv.hi)
        return [TimeInterval(lo, hi) for lo, hi in zip(bounds, bounds[1:])]

    def prefix_fraction(self, iv: TimeInterval, fraction: float) -> TimeInterval | None:
        """Leading sub-interval of ``iv`` holding ``fraction`` of its mass."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must lie in [0, 1], got {fraction}")
        if fraction == 0.0:
            return None
        if fraction == 1.0:
            return iv
        return self.split(iv, (fraction, 1.0 - fraction))[0]
