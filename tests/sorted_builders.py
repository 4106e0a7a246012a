"""The row builders as they were when each finished its row with ``StepProfile._sorted``.

``_copy_run`` then appended every run whole, its start and all its pieces,
and merged nothing.  ``_overlay``, ``splice_time``, ``_swapped_pastes`` and
``_improved_profile`` collected their rows' cuts (sorted, possibly with
zero-width pieces and equal neighbours) and handed them to
``StepProfile._sorted``, which walks the whole row once more to drop and
merge.  They are kept as the references the builders that merge runs where
they meet, and skip that walk, must match float for float.
"""

import math
from bisect import bisect_left, bisect_right
from itertools import repeat

from dseu.acts import GridAct, StepProfile, _check_same_states
from dseu.measure import INF


def copy_run(starts, outs, cuts, src, lo, hi):
    i, j = bisect_right(cuts, lo), bisect_left(cuts, hi)
    starts.append(lo)
    starts.extend(cuts[i:j])
    outs.extend(src[i : j + 1])


def overlay(top, times, bottom):
    starts = []
    outs = []
    at = 0.0
    for lo, hi in times:
        if at < lo:
            copy_run(starts, outs, bottom.cuts, bottom.outs, at, lo)
        copy_run(starts, outs, top.cuts, top.outs, lo, hi)
        at = hi
    if at < INF:
        copy_run(starts, outs, bottom.cuts, bottom.outs, at, INF)
    return StepProfile._sorted(starts[1:], outs)


def splice_time(h, t, f):
    if t < 0 or math.isnan(t) or math.isinf(t):
        raise ValueError(f"splice time must be finite and >= 0, got {t!r}")
    states = _check_same_states(h, f)
    out = {}
    for s in states:
        head, tail = h.row(s), f.row(s)
        k = bisect_left(head.cuts, t)
        out[s] = StepProfile._sorted(
            [*head.cuts[:k], t, *[t + c for c in tail.cuts]], [*head.outs[: k + 1], *tail.outs]
        )
    return GridAct(out)


def swapped_pastes(first, second):
    spans = sorted(
        [
            *zip(first.bounds[::2], first.bounds[1::2], repeat(True)),
            *zip(second.bounds[::2], second.bounds[1::2], repeat(False)),
        ]
    )

    def build(background, better, worse):
        cuts, src = background.cuts, background.outs
        starts = []
        left = []
        right = []
        at = 0.0
        for lo, hi, on_first in spans:
            if at < lo:
                n = len(left)
                copy_run(starts, left, cuts, src, at, lo)
                right += left[n:]
            starts.append(lo)
            left.append(better if on_first else worse)
            right.append(worse if on_first else better)
            at = hi
        if at < INF:
            n = len(left)
            copy_run(starts, left, cuts, src, at, INF)
            right += left[n:]
        del starts[0]
        return StepProfile._sorted(starts, left), StepProfile._sorted(starts, right)

    return build


def improved_profile(profile, ranking, better, rng):
    upgrades = [(i, cand) for i, out in enumerate(profile.outs) for cand in better[out]]
    if not upgrades:
        return None
    i, cand = rng.choice(upgrades)
    outs = list(profile.outs)
    outs[i] = cand
    return StepProfile._sorted(profile.cuts, outs)
