"""Simulated decision makers answering pairwise act comparisons.

Every protocol asks an oracle for the same things, the interface of
:class:`Oracle`: ``states``, ``outcomes``, ``band``, ``discount`` (``None``
when there is no discount measure), ``value(f)`` and ``compare(f, g)``.
``compare`` returns one of the three :class:`Preference` responses, with
ties declared inside the indifference band.  The expected-utility oracle
follows a full model; the Choquet oracle replaces the state beliefs with a
(possibly non-additive) capacity, applying it to the discounted row values.
:func:`WidenedOracle` copies an oracle with a wider ``band``.  The one
wrapper, :class:`CountingOracle`, reads every attribute it does not define
from the oracle it wraps; elicitation sessions count their own queries,
so it is for callers who want a count or a log.  All oracles here are
deterministic, so elicitation sessions and audit witnesses replay exactly.

``compare`` raises ``ValueError`` on a NaN value difference, which no
answer fits.  The SEU and Choquet oracles share one ``value``, which
memoises the values of the two acts they used most recently, keyed by
identity, and on a miss calls the valuation directly: the model's
``act_value``, bound once at construction, or the Choquet integral.  Every
query of a search uses its fixed act, so that act is valued once per
search.  This relies on acts being immutable: the library never mutates a
:class:`~dseu.acts.GridAct` after construction.
Every row is valued through the module-level ``profile_value`` (so a
wrapper bound to that name sees every row).  Every probe of a search is a
deterministic act, which records its one row
(:attr:`~dseu.acts.GridAct.common_row`): it is valued from that row alone,
without walking the states.  The SEU oracle sums its belief products in the
act's state order; the Choquet oracle weights it by the capacity steps of
:class:`Capacity`, without sorting the states.  Any other act is valued by
walking its states in its own order and valuing each distinct row object
once, keyed by ``id``, also when all of its states share one row.  The
Choquet oracle then lists the row values in the capacity's state order,
without a per-state dict, and integrates that list, sorted stably from the
capacity's label order.  Either way the floats are those of the per-row
path.
"""

from __future__ import annotations

import enum
import itertools
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping

from .acts import GridAct, Outcome, State
from .evaluate import Beliefs, DSEUModel, UtilityModel, check_states, profile_value
from .measure import ExpMeasure, plain_sum


class ProtocolError(RuntimeError):
    """An oracle answered in a way the running protocol cannot use."""


class Preference(enum.Enum):
    STRICTLY_PREFERS_FIRST = "first"
    INDIFFERENT = "indifferent"
    STRICTLY_PREFERS_SECOND = "second"

    @property
    def flipped(self) -> Preference:
        if self is _FIRST:
            return _SECOND
        if self is _SECOND:
            return _FIRST
        return self


# The members as module names, for the search and audit loops: a module name
# is read in a few ns, ``Preference.<member>`` in over 100.
_FIRST = Preference.STRICTLY_PREFERS_FIRST
_INDIFFERENT = Preference.INDIFFERENT
_SECOND = Preference.STRICTLY_PREFERS_SECOND


class Oracle:
    """A preference on acts: values compared within an indifference band.

    Subclasses supply ``value``, ``states``, ``outcomes``, ``band`` and
    ``discount``.
    """

    def __post_init__(self) -> None:
        if not self.band >= 0:
            raise ValueError(f"indifference band must be >= 0, got {self.band}")

    def compare(self, f: GridAct, g: GridAct) -> Preference:
        """The preference between ``f`` and ``g``; a NaN value difference raises ``ValueError``."""
        diff = self.value(f) - self.value(g)
        if abs(diff) <= self.band:
            return _INDIFFERENT
        if diff > 0:
            return _FIRST
        if diff < 0:
            return _SECOND
        raise ValueError(f"the value difference of the two acts is {diff!r}")


def _memo_field():
    """Per-oracle value memo, left out of ``==``, ``hash`` and ``repr``."""
    return field(default_factory=list, init=False, repr=False, compare=False)


class _Memoised(Oracle):
    """An oracle whose ``value`` remembers the two acts most recently used.

    A subclass keeps the memo in its field ``_memo`` and supplies the
    valuation ``_value(f)``, as a method or as an attribute set at
    construction.
    """

    _memo: list[tuple[GridAct, float]]
    _value: Callable[[GridAct], float]

    def value(self, f: GridAct) -> float:
        """``_value(f)``, remembered for the two acts most recently used.

        ``_memo`` holds ``(act, value)`` pairs, most recently used first, and
        matches acts by identity; holding the acts keeps their identities
        unique.  A hit moves the act to the front; a miss puts the newly
        valued act at the front and drops the back one, and a valuation
        that raises leaves the memo as it was.
        """
        memo = self._memo
        if memo:
            first = memo[0]
            if first[0] is f:
                return first[1]
            if len(memo) == 2:
                second = memo[1]
                if second[0] is f:
                    memo[0], memo[1] = second, first
                    return second[1]
        v = self._value(f)
        memo.insert(0, (f, v))
        del memo[2:]
        return v


@dataclass(frozen=True)
class SEUOracle(_Memoised):
    """Compares acts by their discounted subjective expected utility.

    ``_value`` is the model's bound ``act_value``, stored at construction.
    """

    model: DSEUModel
    band: float = 0.0
    _memo: list[tuple[GridAct, float]] = _memo_field()
    _value: Callable[[GridAct], float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "_value", self.model.act_value)

    @property
    def states(self) -> tuple[State, ...]:
        return self.model.states

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return self.model.outcomes

    @property
    def discount(self) -> ExpMeasure:
        return self.model.discount

    @property
    def utility(self) -> UtilityModel:
        return self.model.utility


def subset_indices(n: int) -> Iterator[tuple[int, ...]]:
    """Every subset of ``range(n)``, by size, each size in combination order."""
    return itertools.chain.from_iterable(itertools.combinations(range(n), r) for r in range(n + 1))


def subsets(states: tuple[State, ...]) -> list[frozenset[State]]:
    """Every subset of ``states``, in the order of :func:`subset_indices`."""
    return [frozenset(map(states.__getitem__, c)) for c in subset_indices(len(states))]


@dataclass(frozen=True)
class Capacity:
    """Normalized monotone set function on the subsets of a finite state space.

    Besides ``weights``, it keeps its state set, for the oracle's state
    check, the same values in a list indexed by bitmask, bit ``i`` standing
    for ``states[i]``, for :func:`choquet_value`, the state indices in
    label order (``_label_order``), and the steps
    ``by_mask[top_k] - by_mask[top_{k-1}]`` along them (``top_k`` the first
    ``k`` of them, ``by_mask[top_0]`` read as 0).  Label order is the order
    :func:`choquet_value` starts its stable sort from, so it is the order
    it takes when every state has the same value, and that value times each
    step, summed in turn, is its integral.

    The states must be distinct; the first one listed again raises.  The
    constructor then maps each weighted subset to its mask once and checks
    the weights on that list, in this order: every subset weighted (the
    first missing one in the order of :func:`subset_indices` named), the
    empty set 0, the full set 1 (within 1e-12), every key a set of the
    states, monotone (within 1e-12), and no weight NaN.  The first
    violation, in the order of the weights and then of ``states``, raises.
    """

    states: tuple[State, ...]
    weights: Mapping[frozenset[State], float]
    _full: frozenset[State] = field(init=False, repr=False, compare=False)
    _by_mask: list[float] = field(init=False, repr=False, compare=False)
    _label_order: list[int] = field(init=False, repr=False, compare=False)
    _steps: list[float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        states = self.states
        full = frozenset(states)
        if len(full) != len(states):
            twice = next(s for i, s in enumerate(states) if s in states[:i])
            raise ValueError(f"capacity lists state {twice!r} twice in {list(states)}")
        object.__setattr__(self, "_full", full)
        spec = dict(self.weights)
        spec.setdefault(frozenset(), 0.0)
        spec.setdefault(full, 1.0)
        bits = {s: 1 << i for i, s in enumerate(states)}
        # ``None`` stands for a key that is not a set of the states.
        masks = [
            sum(map(bits.__getitem__, c)) if isinstance(c, frozenset) and c <= full else None
            for c in spec
        ]
        # Distinct sets of the states have distinct masks, so the keys name as
        # many of the 2^k subsets of the k states as there are masks not None.
        missing = (1 << len(states)) - len(masks) + masks.count(None)
        if missing:
            present = set(masks)
            first = next(c for c in subset_indices(len(states)) if sum(1 << i for i in c) not in present)
            raise ValueError(f"capacity misses {missing} subsets, e.g. {sorted(states[i] for i in first)}")
        if spec[frozenset()] != 0.0:
            raise ValueError("capacity of the empty set must be 0")
        if abs(spec[full] - 1.0) > 1e-12:
            raise ValueError("capacity of the full state space must be 1")
        if None in masks:
            bad = list(spec)[masks.index(None)]
            if not isinstance(bad, frozenset):
                raise TypeError(f"capacity subsets must be frozensets, got {bad!r}")
            named = [*(s for s in states if s in bad), *sorted(bad - full)]
            raise ValueError(f"capacity weighs {named}, with states outside {list(states)}")
        values = list(spec.values())
        by_mask = [0.0] * (1 << len(states))
        for m, v in zip(masks, values):
            by_mask[m] = v
        order = [bits[s] for s in states]
        for subset, m, v in zip(spec, masks, values):
            floor = v - 1e-12
            for b in order:
                if not m & b and by_mask[m | b] < floor:
                    s = states[order.index(b)]
                    raise ValueError(
                        f"capacity not monotone: adding {s!r} to {sorted(subset)} lowers it"
                    )
        if any(map(operator.ne, values, values)):
            subset = next(c for c, v in spec.items() if v != v)
            raise ValueError(f"capacity of {[s for s in states if s in subset]} is NaN")
        object.__setattr__(self, "weights", spec)
        object.__setattr__(self, "_by_mask", by_mask)
        label_order = sorted(range(len(states)), key=states.__getitem__)
        steps = []
        prev = 0.0
        top = 0
        for i in label_order:
            top |= 1 << i
            steps.append(by_mask[top] - prev)
            prev = by_mask[top]
        object.__setattr__(self, "_label_order", label_order)
        object.__setattr__(self, "_steps", steps)

    def __repr__(self) -> str:
        """Subsets as tuples in ``states`` order, so equal capacities print alike."""
        weights = {
            tuple(s for s in self.states if s in c): self.weights[c]
            for c in subsets(self.states)
        }
        return f"Capacity(states={self.states!r}, weights={weights!r})"

    def __call__(self, subset: Iterable[State]) -> float:
        return self.weights[frozenset(subset)]

    @classmethod
    def additive(cls, beliefs: Beliefs) -> Capacity:
        return cls.epsilon_contamination(beliefs, 0.0)

    @classmethod
    def epsilon_contamination(cls, beliefs: Beliefs, epsilon: float) -> Capacity:
        """Shrinks every proper event by ``1 - epsilon``; the sure event keeps mass 1."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"contamination must lie in [0, 1], got {epsilon}")
        states = beliefs.states
        # Sum in state order: a sum over the frozenset follows its hash order.
        probs = [beliefs(s) for s in states]
        spec = {
            frozenset(map(states.__getitem__, c)): (1.0 - epsilon)
            * plain_sum(map(probs.__getitem__, c))
            for c in subset_indices(len(states))
        }
        spec[frozenset(states)] = 1.0
        return cls(states, spec)


def choquet_value(
    capacity: Capacity, row_values: Mapping[State, float]
) -> float:
    """Choquet integral of per-state values against the capacity.

    The values are read in ``capacity.states`` order (a missing state raises
    ``KeyError``) and integrated by :func:`_integral`, over the states
    sorted stably by decreasing value from their label order.
    """
    return _integral(capacity, [row_values[s] for s in capacity.states])


def _integral(capacity: Capacity, values: list[float]) -> float:
    """Choquet integral of ``values``, listed in ``capacity.states`` order.

    Telescopes over the states by decreasing value, reading the capacity of
    each upper set by its bitmask.  The order is a stable sort of the
    capacity's label order, so tied values (``-0.0`` and ``0.0`` among
    them) stay in label order, which the integral is insensitive to.
    """
    by_mask = capacity._by_mask
    total = 0.0
    prev = 0.0
    top = 0
    for i in sorted(capacity._label_order, key=values.__getitem__, reverse=True):
        top |= 1 << i
        nu = by_mask[top]
        total += (nu - prev) * values[i]
        prev = nu
    return total


@dataclass(frozen=True)
class ChoquetOracle(_Memoised):
    """Discounts each row first, then aggregates rows with a Choquet integral."""

    discount: ExpMeasure
    utility: UtilityModel
    capacity: Capacity
    band: float = 0.0
    _memo: list[tuple[GridAct, float]] = _memo_field()

    @property
    def states(self) -> tuple[State, ...]:
        return self.capacity.states

    @property
    def outcomes(self) -> tuple[Outcome, ...]:
        return self.utility.outcomes

    def _value(self, f: GridAct) -> float:
        capacity = self.capacity
        if f.profiles.keys() != capacity._full:
            check_states(capacity.states, f)
        discount, utility = self.discount, self.utility
        row = f.common_row
        if row is None:
            # Each distinct row object valued once, in the act's state order,
            # keyed by id(): the act keeps every row alive for the whole call.
            rows = f.profiles
            done: dict[int, float] = {}
            values = []
            for p in rows.values():
                v = done.get(id(p))
                if v is None:
                    v = done[id(p)] = profile_value(discount, utility, p)
                values.append(v)
            if tuple(rows) != capacity.states:
                values = [done[id(rows[s])] for s in capacity.states]
            return _integral(capacity, values)
        v = profile_value(discount, utility, row)
        # The loop of _integral, which adds as measure.plain_sum does.
        total = 0.0
        for step in capacity._steps:
            total += step * v
        return total


@dataclass(frozen=True)
class FunctionalOracle(Oracle):
    """Oracle induced by an arbitrary value functional on grid acts.

    When ``states`` is non-empty, an act on other states raises
    ``KeyError``, as with the other oracles; with empty ``states`` acts
    are not checked and ``fn`` sees whatever it is given.
    """

    fn: Callable[[GridAct], float]
    band: float = 0.0
    states: tuple[State, ...] = ()
    outcomes: tuple[Outcome, ...] = ()
    discount: ExpMeasure | None = None

    def value(self, f: GridAct) -> float:
        if self.states:
            check_states(self.states, f)
        return self.fn(f)


def WidenedOracle(inner: Oracle, extra_band: float = 0.0) -> Oracle:
    """A copy of ``inner``, of its class, with the band ``inner.band + extra_band``.

    The copy starts with an empty value memo.  Only an oracle dataclass with
    a ``band`` field can be widened: widening a :class:`CountingOracle`
    raises ``TypeError``.
    """
    if not extra_band >= 0:
        raise ValueError(f"band inflation must be >= 0, got {extra_band}")
    return replace(inner, band=inner.band + extra_band)


@dataclass
class CountingOracle:
    """Pass-through wrapper recording the number (and log) of comparisons.

    Only ``compare`` is counted; ``value`` passes through to ``inner`` uncounted.
    """

    inner: Oracle | CountingOracle
    count: int = 0
    keep_log: bool = False
    log: list[tuple[GridAct, GridAct, Preference]] = field(default_factory=list)

    def __getattr__(self, name: str):
        """What it does not define, its inner oracle has.

        Never ``inner`` itself, which ``copy`` and ``pickle`` probe before it is set.
        """
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)

    def compare(self, f: GridAct, g: GridAct) -> Preference:
        answer = self.inner.compare(f, g)
        self.count += 1
        if self.keep_log:
            self.log.append((f, g, answer))
        return answer
