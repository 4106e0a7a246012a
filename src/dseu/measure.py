"""Closed-form arithmetic for the exponential measure on time.

The measure puts mass ``1 - exp(-rate * t)`` on the prefix ``[0, t)`` and is
represented by its rate alone.  Sets of times are finite disjoint unions of
half-open intervals ``[lo, hi)`` where ``hi`` may be ``math.inf``; with that
restriction every mass, quantile, shift, and proportional split has an exact
closed form, so no numerical integration happens anywhere in this module.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

INF = math.inf

#: Prefix masses above this are reported as the whole horizon.
CEILING_MASS = 1.0 - 1e-9


def plain_sum(values: Iterable[float]) -> float:
    """``values`` added left to right from the int ``0``, as ``sum`` did before CPython 3.12.

    From 3.12 ``sum`` of floats is compensated, which changes last digits;
    every float sum in the library is this one, so its results and the CLI's
    bytes are the same on every supported version.  An empty sum is the int
    ``0``, as ``sum([])`` is.
    """
    total = 0
    for x in values:
        total += x
    return total


def _require_finite(name: str, x: float) -> None:
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")


def _interval(lo: float, hi: float) -> tuple[float, float]:
    """``(lo, hi)``, checked to be an interval with ``0 <= lo < hi <= inf``."""
    _require_finite("interval lower bound", lo)
    if lo < 0:
        raise ValueError(f"interval lower bound must be >= 0, got {lo}")
    if math.isnan(hi):
        raise ValueError("interval upper bound is NaN")
    if not lo < hi:
        raise ValueError(f"empty or inverted interval [{lo}, {hi})")
    return lo, hi


@dataclass(frozen=True)
class TimeInterval:
    """Half-open interval ``[lo, hi)`` with ``0 <= lo < hi <= inf``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        _interval(self.lo, self.hi)


@dataclass(frozen=True)
class TimeSet:
    """Finite disjoint union of half-open intervals, as one flat tuple of bounds.

    ``bounds`` is ``(lo0, hi0, lo1, hi1, ...)``, even in length, at least 0
    and strictly increasing: touching intervals are merged, and only the
    last bound may be ``inf``.  Iterating yields the ``(lo, hi)`` pairs.
    The bare constructor validates the bounds; :meth:`from_pairs` builds a
    set from arbitrary intervals.
    """

    bounds: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        b = self.bounds
        if len(b) % 2 or (b and not (0.0 <= b[0] and all(map(operator.lt, b, b[1:])))):
            raise ValueError(f"bounds must be even in number, >= 0 and strictly increasing: {b!r}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> TimeSet:
        """Union of ``(lo, hi)`` intervals, each checked as a :class:`TimeInterval`, sorted and merged."""
        bounds: list[float] = []
        for lo, hi in sorted([_interval(lo, hi) for lo, hi in pairs], key=operator.itemgetter(0)):
            if bounds and lo <= bounds[-1]:
                bounds[-1] = max(bounds[-1], hi)
            else:
                bounds += (lo, hi)
        return cls(tuple(bounds))

    @classmethod
    def empty(cls) -> TimeSet:
        return cls(())

    @classmethod
    def full(cls) -> TimeSet:
        return cls((0.0, INF))

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return zip(self.bounds[::2], self.bounds[1::2])

    def __bool__(self) -> bool:
        return bool(self.bounds)

    @property
    def is_empty(self) -> bool:
        return not self.bounds

    def contains(self, t: float) -> bool:
        # Inside exactly when an odd number of bounds lie at or below t.
        return bisect_right(self.bounds, t) % 2 == 1

    def shift(self, t: float) -> TimeSet:
        if t < 0:
            raise ValueError(f"shift must be >= 0, got {t}")
        return TimeSet(tuple([b + t for b in self.bounds]))

    def union(self, other: TimeSet) -> TimeSet:
        # The sort in from_pairs merges the two sorted runs in one linear pass.
        return TimeSet.from_pairs((*self, *other))

    def intersect(self, other: TimeSet) -> TimeSet:
        a, b = self.bounds, other.bounds
        out: list[float] = []
        i = j = 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i], b[j]), min(a[i + 1], b[j + 1])
            if lo < hi:
                out += (lo, hi)
            if a[i + 1] < b[j + 1]:
                i += 2
            else:
                j += 2
        return TimeSet(tuple(out))

    def complement(self) -> TimeSet:
        """Complement within the whole horizon ``[0, inf)``."""
        b = self.bounds
        b = b[1:] if b and b[0] == 0.0 else (0.0, *b)
        b = b[:-1] if b and b[-1] == INF else (*b, INF)
        return TimeSet(b)


@dataclass(frozen=True)
class ExpMeasure:
    """The discount measure with survival function ``exp(-rate * t)``."""

    rate: float

    def __post_init__(self) -> None:
        _require_finite("rate", self.rate)
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    @functools.cached_property
    def _ceiling(self) -> float:
        """``quantile(CEILING_MASS)``, the ceiling of every time-equivalent search at this rate.

        Computed on first use and kept in the instance ``__dict__``, outside
        the fields, so ``==``, ``hash``, ``repr`` and ``replace`` ignore it.
        """
        return self.quantile(CEILING_MASS)

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
        return plain_sum([self.sf(lo) - self.sf(hi) for lo, hi in a])

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
        total = plain_sum(weights)
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
        if iv.hi < INF:
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
