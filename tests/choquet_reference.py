"""The Choquet integral and multi-row valuation ``oracles`` used before the list integral.

``choquet_value`` sorts the state indices with a key of ``(-value, label)``
per call, and ``multi_row_value`` values a multi-row act through a per-state
dict of row values, each distinct row object valued once in the act's
state order.  They are the reference the list integral, sorted stably from
the capacity's label order, must match bit for bit, errors included.
"""

from dseu.evaluate import check_states, profile_value


def choquet_value(capacity, row_values):
    states, by_mask = capacity.states, capacity._by_mask
    order = sorted(range(len(states)), key=lambda i: (-row_values[states[i]], states[i]))
    total = 0.0
    prev = 0.0
    top = 0
    for i in order:
        top |= 1 << i
        nu = by_mask[top]
        total += (nu - prev) * row_values[states[i]]
        prev = nu
    return total


def multi_row_value(oracle, f):
    capacity = oracle.capacity
    if f.profiles.keys() != capacity._full:
        check_states(capacity.states, f)
    done = {}
    rows = {}
    for s, p in f.profiles.items():
        v = done.get(id(p))
        if v is None:
            v = done[id(p)] = profile_value(oracle.discount, oracle.utility, p)
        rows[s] = v
    return choquet_value(capacity, rows)
