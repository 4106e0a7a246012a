"""The frozenset validation ``oracles.Capacity`` did before it checked masks.

``ReferenceCapacity`` is a ``Capacity`` whose constructor and
``epsilon_contamination`` are the set-based versions: the completeness check
on a set of frozensets, the monotonicity check by frozenset unions, and each
belief sum over the states filtered by membership.  It keeps the same fields,
so a ``ChoquetOracle`` can use it, and it is the reference the mask
validation must match in weights, masks, steps, ``repr`` and errors.
"""

from dseu.oracles import Capacity, subsets

from left_sum import left_sum


class ReferenceCapacity(Capacity):
    def __post_init__(self) -> None:
        full = frozenset(self.states)
        object.__setattr__(self, "_full", full)
        spec = dict(self.weights)
        spec.setdefault(frozenset(), 0.0)
        spec.setdefault(full, 1.0)
        missing = [c for c in subsets(self.states) if c not in spec]
        if missing:
            raise ValueError(f"capacity misses {len(missing)} subsets, e.g. {sorted(missing[0])}")
        if spec[frozenset()] != 0.0:
            raise ValueError("capacity of the empty set must be 0")
        if abs(spec[full] - 1.0) > 1e-12:
            raise ValueError("capacity of the full state space must be 1")
        for subset, v in spec.items():
            for s in self.states:
                if s not in subset and spec[subset | {s}] < v - 1e-12:
                    raise ValueError(
                        f"capacity not monotone: adding {s!r} to {sorted(subset)} lowers it"
                    )
        object.__setattr__(self, "weights", spec)
        by_mask = [0.0] * (1 << len(self.states))
        for subset, v in spec.items():
            by_mask[sum(1 << i for i, s in enumerate(self.states) if s in subset)] = v
        object.__setattr__(self, "_by_mask", by_mask)
        label_order = sorted(range(len(self.states)), key=self.states.__getitem__)
        steps = []
        prev = 0.0
        top = 0
        for i in label_order:
            top |= 1 << i
            steps.append(by_mask[top] - prev)
            prev = by_mask[top]
        object.__setattr__(self, "_label_order", label_order)
        object.__setattr__(self, "_steps", steps)

    @classmethod
    def epsilon_contamination(cls, beliefs, epsilon):
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"contamination must lie in [0, 1], got {epsilon}")
        states = beliefs.states
        spec = {
            c: (1.0 - epsilon) * left_sum(beliefs(s) for s in states if s in c)
            for c in subsets(states)
        }
        spec[frozenset(states)] = 1.0
        return cls(states, spec)
