"""The two splices as they were when their rows went through a checking canonical build.

``canonical`` is ``StepProfile.canonical`` as it was then: one loop that drops
zero-width segments, checks each cut it keeps and merges equal neighbours.

``splice_time`` built each row from the head's cuts below ``t``, then ``t``,
then ``t`` plus each tail cut, and returned ``f``'s rows, normalized, at
``t = 0``.  ``splice_event`` passed rows through whole (normalized) off the
event, on an empty time set and on the whole horizon, and pasted ``f``'s row
over ``g``'s on any other time set (``_paste``).  Both went through the
``GridAct`` constructor.  They are kept as the references the splices that
build their rows from those cuts as sorted must match, act for act and
error for error.
"""

import math
from bisect import bisect_left

from dseu.acts import (
    GridAct,
    StepProfile,
    _bad_count,
    _bad_cut,
    _check_same_states,
    _copy_run,
)
from dseu.measure import INF, TimeSet


def canonical(breakpoints, outcomes):
    bounds = [0.0, *breakpoints, INF]
    outs = list(outcomes)
    if len(outs) != len(bounds) - 1:
        raise ValueError(_bad_count(bounds, outs))
    cuts = []
    runs = []
    prev = 0.0
    for lo, hi, out in zip(bounds, bounds[1:], outs):
        if lo == hi:
            continue
        if runs:
            if not prev < lo < INF:
                raise ValueError(_bad_cut(lo, prev))
            prev = lo
            if out == runs[-1]:
                continue
            cuts.append(lo)
        runs.append(out)
    return StepProfile._unchecked(tuple(cuts), tuple(runs))


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
        out[s] = canonical(
            [*head.cuts[:k], t, *[t + c for c in tail.cuts]], [*head.outs[: k + 1], *tail.outs]
        )
    return GridAct(out)


def _paste(background, patches):
    starts = []
    outs = []
    at = 0.0
    for lo, hi, cuts, src in patches:
        if at < lo:
            _copy_run(starts, outs, background.cuts, background.outs, at, lo)
        _copy_run(starts, outs, cuts, src, lo, hi)
        at = hi
    if at < INF:
        _copy_run(starts, outs, background.cuts, background.outs, at, INF)
    return canonical(starts[1:], outs)


def _overlay(top, times, bottom):
    return _paste(bottom, [(lo, hi, top.cuts, top.outs) for lo, hi in times])


def splice_event(f, event, g):
    states = _check_same_states(f, g)
    times = TimeSet.full() if event.times is None else event.times
    out = {}
    for s in states:
        if not event.covers_state(s) or times.is_empty:
            out[s] = g.row(s).normalized()
        elif times == TimeSet.full():
            out[s] = f.row(s).normalized()
        else:
            out[s] = _overlay(f.row(s), times, g.row(s))
    return GridAct(out)
