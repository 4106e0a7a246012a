"""Step acts over states and continuous time, with the two splice operators.

An act assigns an outcome to every (state, time) pair.  Here every act is a
finite grid: per state, a step profile given by its cut times
``0 < c_1 < ... < c_n < inf`` and the ``n + 1`` outcomes it pays on
``[0, c_1), [c_1, c_2), ..., [c_n, inf)``.  Sorted cuts tile ``[0, inf)`` by
their structure, so a profile is checked once, by its constructor, and
trusted everywhere else, as is the flat bounds tuple of an event's time set.
Every profile an operation here returns is canonical (no zero-width piece,
no two equal neighbours).  A row passed through whole goes through
:meth:`StepProfile.normalized`; every other row (spliced, overlaid, sampled,
pasted, bracketed or with some outcomes changed) comes from cuts that come
out sorted and is built by ``StepProfile._sorted``, without a per-cut check.
Deterministic acts have the same profile in every state; stochastic acts
are constant over time.  Outcomes and states are opaque string labels.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import ClassVar, Iterable, Iterator, Mapping, Sequence

from .measure import INF, TimeSet

Outcome = str
State = str


def _bad_cut(cut: float, prev: float) -> str:
    return f"cuts must be finite, above 0 and strictly increasing: {cut!r} after {prev!r}"


def _bad_count(bounds: list[float], outs: list[Outcome]) -> str:
    return f"need {len(bounds) - 1} outcomes for {len(bounds)} bounds, got {len(outs)}"


#: Stands for "no piece kept yet" where a loop compares each outcome with the
#: last one kept; it equals no outcome.
_NO_OUTCOME = object()


@dataclass(frozen=True)
class StepProfile:
    """Outcome stream over time: ``outs[k]`` is paid from ``cuts[k - 1]`` to ``cuts[k]``.

    The cuts are finite, strictly increasing and above 0, and there is one
    outcome more than cuts: ``outs[0]`` starts at time 0 and ``outs[-1]``
    runs to ``inf``.  Equal adjacent outcomes are allowed; :meth:`normalized`
    drops the cuts between them, and on normalized profiles equality is
    structural.  :meth:`canonical` builds a normalized profile from any
    breakpoints; the private ``_sorted`` builds it from breakpoints known to
    be sorted, without checking each cut.
    """

    cuts: tuple[float, ...]
    outs: tuple[Outcome, ...]

    def __post_init__(self) -> None:
        if len(self.outs) != len(self.cuts) + 1:
            raise ValueError(
                f"need {len(self.cuts) + 1} outcomes for {len(self.cuts)} cuts, got {len(self.outs)}"
            )
        cuts = self.cuts
        if not cuts or (0.0 < cuts[0] and cuts[-1] < INF and all(map(operator.lt, cuts, cuts[1:]))):
            return
        prev, cut = next(pair for pair in zip((0.0, *cuts), cuts) if not pair[0] < pair[1] < INF)
        raise ValueError(_bad_cut(cut, prev))

    @classmethod
    def _unchecked(cls, cuts: tuple[float, ...], outs: tuple[Outcome, ...]) -> StepProfile:
        """The profile ``cls(cuts, outs)`` of fields a builder here has already checked."""
        profile = object.__new__(cls)
        object.__setattr__(profile, "cuts", cuts)
        object.__setattr__(profile, "outs", outs)
        return profile

    @classmethod
    def constant(cls, outcome: Outcome) -> StepProfile:
        return cls._unchecked((), (outcome,))

    @classmethod
    def before_after(cls, early: Outcome, t: float, late: Outcome) -> StepProfile:
        """``early`` on ``[0, t)`` then ``late`` forever; ``t = 0`` drops ``early``."""
        return cls.from_breakpoints((t,), (early, late))

    @classmethod
    def from_breakpoints(
        cls, breakpoints: Iterable[float], outcomes: Iterable[Outcome]
    ) -> StepProfile:
        """Profile with pieces between consecutive members of ``[0, *breakpoints, inf)``.

        Degenerate segments (zero width, e.g. repeated breakpoints or a
        breakpoint at ``inf``) are skipped together with their outcome.
        """
        bounds = [0.0, *breakpoints, INF]
        outs = list(outcomes)
        if len(outs) != len(bounds) - 1:
            raise ValueError(_bad_count(bounds, outs))
        kept = list(map(operator.ne, bounds, bounds[1:]))
        # Tuples are built from lists throughout: CPython grows a tuple built
        # from a generator by resizing, and the freed results then fill its
        # per-size free lists: about 3 MB more peak memory over 100 audits.
        return cls(tuple(list(compress(bounds, kept))[1:]), tuple(list(compress(outs, kept))))

    @classmethod
    def canonical(cls, breakpoints: Iterable[float], outcomes: Iterable[Outcome]) -> StepProfile:
        """``from_breakpoints(breakpoints, outcomes).normalized()``, with its errors."""
        return cls.from_breakpoints(breakpoints, outcomes).normalized()

    @classmethod
    def _sorted(cls, cuts: Sequence[float], outs: Sequence[Outcome]) -> StepProfile:
        """``canonical(cuts, outs)`` for cuts a builder here knows to be sorted.

        The cuts are ``>= 0`` and non-decreasing (``inf`` allowed), and there
        is one outcome more than cuts.  No cut is checked, as no check could
        fail: a piece is kept only when ``lo != hi``, so ``lo < hi <= inf``,
        and its start is below ``inf`` and above the start of the piece kept
        before it.
        """
        starts: list[float] = []
        runs: list[Outcome] = []
        lo, last = 0.0, _NO_OUTCOME
        for hi, out in zip(cuts, outs):
            if lo != hi:
                if out != last:
                    starts.append(lo)
                    runs.append(out)
                    last = out
                lo = hi
        if lo != INF and outs[-1] != last:
            starts.append(lo)
            runs.append(outs[-1])
        # The first kept piece starts at 0.
        del starts[0]
        return cls._unchecked(tuple(starts), tuple(runs))

    def normalized(self) -> StepProfile:
        """Drop each cut between equal outcomes (same pointwise value); ``self`` if none."""
        outs = self.outs
        if all(map(operator.ne, outs, outs[1:])):
            return self
        return StepProfile._sorted(self.cuts, outs)

    def segments(self) -> Iterator[tuple[float, float, Outcome]]:
        """``(lo, hi, outcome)`` of each piece, in time order."""
        return zip((0.0, *self.cuts), (*self.cuts, INF), self.outs)

    def outcome_at(self, t: float) -> Outcome:
        if not t >= 0:
            raise ValueError(f"time must be >= 0, got {t}")
        return self.outs[bisect_right(self.cuts, t)]

    @property
    def outcomes(self) -> set[Outcome]:
        return set(self.outs)


@dataclass(frozen=True)
class GridAct:
    """Act given by one step profile per state.

    The mapping fixes the state space and its order.  Equality is structural
    on normalized profiles, which every operation in this module returns.
    Acts are immutable: the library never mutates ``profiles`` after
    construction, so valuations may be remembered per act object.  Several
    states may share one profile object (deterministic acts and bets do).
    :meth:`deterministic` and :meth:`constant` record the one row they hold
    as ``common_row``, so a valuation can read it once instead of walking
    the states.  ``common_row`` is a class default of ``None``, not a
    field, which ``_lift`` overrides on the act it builds: an act built
    from a mapping (also by ``dataclasses.replace``) reads ``None``,
    whatever its rows, and ``common_row`` takes no part in ``fields``,
    ``==`` or ``repr``.
    """

    profiles: Mapping[State, StepProfile]
    common_row: ClassVar[StepProfile | None] = None

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("an act needs at least one state")

    @classmethod
    def _lift(cls, states: Iterable[State], row: StepProfile) -> GridAct:
        """The act paying the canonical ``row`` in every state, recorded as ``common_row``."""
        act = cls(dict.fromkeys(states, row))
        object.__setattr__(act, "common_row", row)
        return act

    @property
    def states(self) -> tuple[State, ...]:
        return tuple(self.profiles)

    def row(self, state: State) -> StepProfile:
        return self.profiles[state]

    def at(self, state: State, t: float) -> Outcome:
        return self.profiles[state].outcome_at(t)

    @property
    def outcomes(self) -> set[Outcome]:
        return set().union(*(p.outcomes for p in self.profiles.values()))

    @property
    def is_deterministic(self) -> bool:
        rows = [p.normalized() for p in self.profiles.values()]
        return all(r == rows[0] for r in rows)

    @classmethod
    def deterministic(cls, states: Iterable[State], profile: StepProfile) -> GridAct:
        return cls._lift(states, profile.normalized())

    @classmethod
    def constant(cls, states: Iterable[State], outcome: Outcome) -> GridAct:
        return cls._lift(states, StepProfile.constant(outcome))

    @classmethod
    def stochastic(cls, assignment: Mapping[State, Outcome]) -> GridAct:
        """Constant-in-time act; states paying the same outcome share one row."""
        rows = {x: StepProfile.constant(x) for x in set(assignment.values())}
        return cls({s: rows[x] for s, x in assignment.items()})

    @classmethod
    def bet(
        cls,
        states: Iterable[State],
        on: Iterable[State],
        win: Outcome,
        lose: Outcome,
    ) -> GridAct:
        """The classic bet: ``win`` forever on the event, ``lose`` elsewhere.

        As with :meth:`stochastic`, states paying the same outcome share one row.
        """
        event = set(on)
        return cls.stochastic({s: win if s in event else lose for s in states})


def _switch_act(states: Iterable[State], early: Outcome, t: float, late: Outcome) -> GridAct:
    """``GridAct.deterministic(states, StepProfile.before_after(early, t, late))``.

    A switch at ``0 < t < inf`` between two different outcomes is one
    canonical two-piece row, so the act is built from it directly; any other
    input takes the checked path, with its errors.
    """
    if early != late and 0.0 < t < INF:
        return GridAct._lift(states, StepProfile._unchecked((t,), (early, late)))
    return GridAct.deterministic(states, StepProfile.before_after(early, t, late))


@dataclass(frozen=True)
class Event:
    """Rectangle event: a state part times a time part.

    ``None`` in either slot means that side is unrestricted (the full state
    space, respectively the whole horizon).  An empty state set or empty
    time set makes the event empty.
    """

    states: frozenset[State] | None = None
    times: TimeSet | None = None

    def __post_init__(self) -> None:
        # ``covers_state`` tests membership, which a string answers by substring.
        if not (self.states is None or isinstance(self.states, (set, frozenset))):
            raise TypeError(
                f"event states must be a set, a frozenset or None, got {type(self.states).__name__}"
            )
        # Overlays trust a time set's bounds, which its constructor checks.
        if not (self.times is None or isinstance(self.times, TimeSet)):
            raise TypeError(f"event times must be a TimeSet or None, got {type(self.times).__name__}")

    @classmethod
    def on_times(cls, times: TimeSet) -> Event:
        return cls(states=None, times=times)

    def covers_state(self, state: State) -> bool:
        return self.states is None or state in self.states


def _check_same_states(f: GridAct, g: GridAct) -> tuple[State, ...]:
    if f.profiles.keys() != g.profiles.keys():
        raise ValueError(
            f"acts live on different state spaces: {sorted(f.states)} vs {sorted(g.states)}"
        )
    return g.states


def splice_time(h: GridAct, t: float, f: GridAct) -> GridAct:
    """Act equal to ``h`` before time ``t`` and to ``f`` shifted by ``t`` after.

    At ``t = 0`` each row is ``f``'s, normalized.  A piece of ``f`` too short
    to survive the shift (its two ends round to one float) is dropped, as is
    one shifted past the largest float.  Each row's cuts are the head's cuts
    below ``t``, then ``t``, then ``t`` plus each tail cut: non-decreasing
    and ``>= 0`` (a shifted cut may round onto its neighbour or overflow to
    ``inf``), so the row is built by ``StepProfile._sorted``, which merges
    equal outcomes across ``t`` too.
    """
    if t < 0 or math.isnan(t) or math.isinf(t):
        raise ValueError(f"splice time must be finite and >= 0, got {t!r}")
    states = _check_same_states(h, f)
    out: dict[State, StepProfile] = {}
    for s in states:
        head, tail = h.row(s), f.row(s)
        k = bisect_left(head.cuts, t)
        out[s] = StepProfile._sorted(
            [*head.cuts[:k], t, *[t + c for c in tail.cuts]], [*head.outs[: k + 1], *tail.outs]
        )
    return GridAct(out)


def _copy_run(
    starts: list[float],
    outs: list[Outcome],
    cuts: Sequence[float],
    src: Sequence[Outcome],
    lo: float,
    hi: float,
) -> None:
    """Append the pieces of the profile ``(cuts, src)`` on ``[lo, hi)`` to ``starts`` and ``outs``.

    The run starts at ``lo``; its other starts are the cuts inside
    ``(lo, hi)``, found by one pair of bisections.
    """
    i, j = bisect_right(cuts, lo), bisect_left(cuts, hi)
    starts.append(lo)
    starts.extend(cuts[i:j])
    outs.extend(src[i : j + 1])


def _overlay(top: StepProfile, times: TimeSet, bottom: StepProfile) -> StepProfile:
    """Canonical profile equal to ``top`` on ``times`` and to ``bottom`` elsewhere.

    Copies the runs of ``bottom`` between the intervals of ``times`` and of
    ``top`` on them.  A time set's bounds are checked ``>= 0`` and strictly
    increasing (touching intervals merged), and a run adds only cuts
    strictly inside its interval, so the row is built by ``StepProfile._sorted``.
    """
    starts: list[float] = []
    outs: list[Outcome] = []
    at = 0.0
    for lo, hi in times:
        if at < lo:
            _copy_run(starts, outs, bottom.cuts, bottom.outs, at, lo)
        _copy_run(starts, outs, top.cuts, top.outs, lo, hi)
        at = hi
    if at < INF:
        _copy_run(starts, outs, bottom.cuts, bottom.outs, at, INF)
    return StepProfile._sorted(starts[1:], outs)


def splice_event(f: GridAct, event: Event, g: GridAct) -> GridAct:
    """Act equal to ``f`` on the rectangle ``event`` and to ``g`` off it."""
    states = _check_same_states(f, g)
    times = TimeSet.full() if event.times is None else event.times
    out: dict[State, StepProfile] = {}
    for s in states:
        if event.covers_state(s):
            out[s] = _overlay(f.row(s), times, g.row(s))
        else:
            out[s] = g.row(s).normalized()
    return GridAct(out)


def restrict(f: GridAct, state: State) -> StepProfile:
    """The deterministic row of ``f`` at ``state``."""
    if state not in f.profiles:
        raise KeyError(f"unknown state {state!r}; act has {sorted(f.states)}")
    return f.row(state)
