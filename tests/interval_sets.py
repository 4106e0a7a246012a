"""Time sets as tuples of validated intervals, the reference for ``dseu.measure.TimeSet``.

This is the interval-object representation the flat bounds tuple replaced,
as it was apart from its names, the members the comparison does not use,
and ``pairs``: every constructor validates each interval, and every
operation walks the interval objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from left_sum import left_sum

INF = math.inf


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


@dataclass(frozen=True)
class RefInterval:
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

    def shift(self, t: float) -> RefInterval:
        return RefInterval(self.lo + t, self.hi + t)

    def contains(self, t: float) -> bool:
        return self.lo <= t < self.hi

    def intersect(self, other: RefInterval) -> RefInterval | None:
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        return RefInterval(lo, hi) if lo < hi else None


@dataclass(frozen=True)
class RefTimeSet:
    """Finite disjoint union of half-open intervals, kept in canonical form."""

    intervals: tuple[RefInterval, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not a.hi < b.lo:
                raise ValueError(
                    f"intervals not canonical: [{a.lo},{a.hi}) then [{b.lo},{b.hi})"
                )

    @classmethod
    def of(cls, intervals: Iterable[RefInterval]) -> RefTimeSet:
        items = sorted(intervals, key=lambda iv: iv.lo)
        merged: list[RefInterval] = []
        for iv in items:
            if merged and iv.lo <= merged[-1].hi:
                last = merged.pop()
                merged.append(RefInterval(last.lo, max(last.hi, iv.hi)))
            else:
                merged.append(iv)
        return cls(tuple(merged))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> RefTimeSet:
        return cls.of(RefInterval(lo, hi) for lo, hi in pairs)

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, t: float) -> bool:
        return any(iv.contains(t) for iv in self.intervals)

    def shift(self, t: float) -> RefTimeSet:
        if t < 0:
            raise ValueError(f"shift must be >= 0, got {t}")
        return RefTimeSet(tuple(iv.shift(t) for iv in self.intervals))

    def union(self, other: RefTimeSet) -> RefTimeSet:
        return RefTimeSet.of((*self.intervals, *other.intervals))

    def intersect(self, other: RefTimeSet) -> RefTimeSet:
        out = []
        for a in self.intervals:
            for b in other.intervals:
                if b.lo >= a.hi:
                    break
                got = a.intersect(b)
                if got is not None:
                    out.append(got)
        return RefTimeSet(tuple(out))

    def complement(self) -> RefTimeSet:
        gaps: list[RefInterval] = []
        cursor = 0.0
        for iv in self.intervals:
            if cursor < iv.lo:
                gaps.append(RefInterval(cursor, iv.lo))
            cursor = iv.hi
        if cursor < INF:
            gaps.append(RefInterval(cursor, INF))
        return RefTimeSet(tuple(gaps))

    def pairs(self) -> list[tuple[float, float]]:
        return [(iv.lo, iv.hi) for iv in self.intervals]


def ref_mass(measure, ts: RefTimeSet) -> float:
    """``ExpMeasure.mass`` of the interval-object set: one ``interval_mass`` per interval."""
    return left_sum(measure.sf(iv.lo) - measure.sf(iv.hi) for iv in ts.intervals)
