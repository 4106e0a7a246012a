"""The time splice as it was when every row went through ``StepProfile.canonical``.

Each row's cuts are the head's cuts below ``t``, then ``t``, then ``t`` plus
each tail cut, and ``canonical`` checked every cut it kept before merging
equal neighbours; the act went through the ``GridAct`` constructor.  It is
kept as the reference the splice that builds its rows from those cuts as
sorted must match, act for act and error for error.
"""

import math
from bisect import bisect_left

from dseu.acts import GridAct, StepProfile, _check_same_states


def splice_time(h, t, f):
    if t < 0 or math.isnan(t) or math.isinf(t):
        raise ValueError(f"splice time must be finite and >= 0, got {t!r}")
    states = _check_same_states(h, f)
    out = {}
    for s in states:
        if t == 0.0:
            out[s] = f.row(s).normalized()
            continue
        head, tail = h.row(s), f.row(s)
        k = bisect_left(head.cuts, t)
        out[s] = StepProfile.canonical(
            [*head.cuts[:k], t, *[t + c for c in tail.cuts]], [*head.outs[: k + 1], *tail.outs]
        )
    return GridAct(out)
