"""Seeded random generation of profiles, acts, and time sets for audits and tests.

Breakpoints are drawn as quantiles of the discount measure, so the sampled
structure concentrates where the measure puts its mass instead of wandering
into the weightless far tail.  Everything is driven by a caller-owned
``random.Random``, which keeps reports reproducible from their seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .acts import _NO_OUTCOME, GridAct, Outcome, State, StepProfile, _bad_count
from .measure import INF, ExpMeasure, TimeSet

#: Draws :meth:`ActSampler.disjoint_time_sets` makes before giving up; one
#: draw suffices unless the sampler's quantiles collapse onto one or two cuts.
DISJOINT_ATTEMPTS = 100

#: The integer draw of ``random.Random`` and of every subclass that overrides
#: ``getrandbits`` (``SystemRandom`` included); ``ActSampler`` runs its loop inline.
_RANDBELOW_WITH_GETRANDBITS = random.Random._randbelow_with_getrandbits


@dataclass(frozen=True)
class ActSampler:
    """Draws step structure matched to one measure, state space, and alphabet.

    Each profile has 1 to ``max_pieces`` pieces, cut at quantiles of masses
    drawn uniformly between 0 and ``mass_ceiling``.  It is built in one loop
    over the sorted masses, which computes each cut and drops and merges
    pieces as the private ``StepProfile._sorted`` does, and equals
    :meth:`StepProfile.canonical` of those cuts.  Both fields are checked at
    construction (``max_pieces`` an integer ``>= 1``, ``0 <= mass_ceiling <=
    1``), so no draw needs a check of its own.

    The draws are exactly those of ``randint(1, max_pieces)``,
    ``uniform(0.0, mass_ceiling)`` and ``choice(outcomes)``, in the same
    order and with the same arithmetic, so every stream of a seed is the
    stream those calls give.  :meth:`profile` draws one row and :meth:`act`
    all of an act's rows, in one loop shared by both.  Floats come from
    ``rng.random``.  An integer below ``n`` is what ``rng._randbelow(n)``
    gives, which ``randint`` and ``choice`` call: when that is
    ``random.Random._randbelow_with_getrandbits`` (every ``random.Random``,
    ``SystemRandom``, any subclass that overrides ``getrandbits``), its loop
    runs inline, without a frame per draw, on the rng's own
    ``getrandbits``; any other rng (a subclass that overrides only
    ``random()``) is asked through its own ``randint`` and ``choice``.  The
    inline loop only ever sees ``n >= 1``, where its body is the same on
    every Python: ``max_pieces`` is checked, and an empty alphabet goes
    through ``rng.choice`` and its ``IndexError`` (at ``n == 0`` the method
    returns 0 without drawing on 3.10 and loops forever from 3.11).
    """

    measure: ExpMeasure
    states: tuple[State, ...]
    outcomes: tuple[Outcome, ...]
    max_pieces: int = 6
    mass_ceiling: float = 0.995

    @classmethod
    def for_oracle(cls, oracle) -> ActSampler:
        measure = oracle.discount
        if measure is None:
            raise ValueError(
                "oracle exposes no discount measure; construct the sampler explicitly"
            )
        return cls(measure, tuple(oracle.states), tuple(oracle.outcomes))

    def __post_init__(self) -> None:
        # As in the JSON readers, a bool is not an integer here.
        if not (type(self.max_pieces) is int and self.max_pieces >= 1):
            raise ValueError(f"max_pieces must be an integer >= 1, got {self.max_pieces!r}")
        if not 0.0 <= self.mass_ceiling <= 1.0:
            raise ValueError(f"mass_ceiling must lie in [0, 1], got {self.mass_ceiling!r}")

    def breakpoints(self, rng: random.Random, count: int) -> list[float]:
        """``count`` sorted quantiles of masses drawn uniformly below the ceiling."""
        # uniform(0.0, ceiling) is 0.0 + (ceiling - 0.0) * random().
        random, ceiling = rng.random, self.mass_ceiling
        qs = sorted([0.0 + ceiling * random() for _ in range(count)])
        # ExpMeasure.quantile's formula; a mass drawn below the checked
        # ceiling needs none of its checks.
        rate = self.measure.rate
        return [-math.log1p(-q) / rate for q in qs]

    def profile(self, rng: random.Random, pieces: int | None = None) -> StepProfile:
        return self._rows(rng, 1, pieces)[0]

    def act(self, rng: random.Random) -> GridAct:
        rows = self._rows(rng, len(self.states))
        return GridAct(dict(zip(self.states, rows)))

    def _rows(self, rng: random.Random, count: int, pieces: int | None = None) -> list[StepProfile]:
        """``count`` rows drawn one after the other, as ``profile(rng, pieces)`` draws each."""
        # randint(1, n) is 1 + _randbelow(n) and choice(seq) is seq[_randbelow(len(seq))];
        # the inline loop is _randbelow's for n >= 1, so no outcomes go to choice's IndexError.
        inline = getattr(rng._randbelow, "__func__", None) is _RANDBELOW_WITH_GETRANDBITS
        getrandbits = rng.getrandbits
        outcomes, max_pieces = self.outcomes, self.max_pieces
        n = len(outcomes)
        k_out, k_pieces = n.bit_length(), max_pieces.bit_length()
        random, ceiling = rng.random, self.mass_ceiling
        log1p, rate = math.log1p, self.measure.rate
        rows: list[StepProfile] = []
        for _ in range(count):
            m = pieces
            if m is None:
                if inline:
                    r = getrandbits(k_pieces)
                    while r >= max_pieces:
                        r = getrandbits(k_pieces)
                    m = 1 + r
                else:
                    m = rng.randint(1, max_pieces)
            # The draws of breakpoints(rng, m - 1), then one outcome per piece.
            qs = sorted([0.0 + ceiling * random() for _ in range(m - 1)])
            if inline and n:
                outs = []
                for _ in range(m):
                    r = getrandbits(k_out)
                    while r >= n:
                        r = getrandbits(k_out)
                    outs.append(outcomes[r])
            else:
                outs = [rng.choice(outcomes) for _ in range(m)]
            if not outs:
                # StepProfile.canonical's error for no outcomes.
                raise ValueError(_bad_count([0.0, INF], outs))
            # StepProfile._sorted's loop, with each cut computed in it from its
            # mass: sorted masses give non-decreasing cuts, and a quantile that
            # overflows to inf (a subnormal rate) only makes zero-width pieces.
            starts: list[float] = []
            runs: list[Outcome] = []
            lo, last = 0.0, _NO_OUTCOME
            for q, out in zip(qs, outs):
                hi = -log1p(-q) / rate
                if lo != hi:
                    if out != last:
                        starts.append(lo)
                        runs.append(out)
                        last = out
                    lo = hi
            if lo != INF and outs[-1] != last:
                starts.append(lo)
                runs.append(outs[-1])
            del starts[0]
            rows.append(StepProfile._unchecked(tuple(starts), tuple(runs)))
        return rows

    def time_set(self, rng: random.Random) -> TimeSet:
        n = rng.randint(0, 3)
        cuts = self.breakpoints(rng, 2 * n)
        return TimeSet.from_pairs(
            (lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi
        )

    def disjoint_time_sets(self, rng: random.Random) -> tuple[TimeSet, TimeSet] | None:
        """Two nonempty disjoint sets from alternating quantile slices, or ``None``."""
        for _ in range(DISJOINT_ATTEMPTS):
            cuts = sorted(set(self.breakpoints(rng, rng.randint(2, 6) * 2)))
            if len(cuts) >= 4:
                pairs = [cuts[k : k + 2] for k in range(0, len(cuts) - 1, 2)]
                # Tuples from lists, not iterators (see StepProfile.from_breakpoints).
                first, second = [[c for p in pairs[j::2] for c in p] for j in (0, 1)]
                return TimeSet(tuple(first)), TimeSet(tuple(second))
        return None

    def splice_time_point(self, rng: random.Random) -> float:
        return self.measure.quantile(rng.uniform(0.0, 0.9))
