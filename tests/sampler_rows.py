"""``ActSampler._rows`` as it was when it drew a row's outcomes in a loop of their own.

The masses were drawn and sorted, then every piece's outcome was drawn into
a list, then a second loop, zipped over masses and outcomes, computed each
cut and dropped and merged pieces as ``StepProfile._sorted`` does.  It is
kept as the reference the one-loop sampler, which draws each outcome inside
the cut loop, must match draw for draw and float for float.
"""

import math
import random

from dseu.acts import _NO_OUTCOME, StepProfile, _bad_count
from dseu.measure import INF

_RANDBELOW_WITH_GETRANDBITS = random.Random._randbelow_with_getrandbits


def rows(sampler, rng, count, pieces=None):
    inline = getattr(rng._randbelow, "__func__", None) is _RANDBELOW_WITH_GETRANDBITS
    getrandbits = rng.getrandbits
    outcomes, max_pieces = sampler.outcomes, sampler.max_pieces
    n = len(outcomes)
    k_out, k_pieces = n.bit_length(), max_pieces.bit_length()
    random, ceiling = rng.random, sampler.mass_ceiling
    log1p, rate = math.log1p, sampler.measure.rate
    built = []
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
            raise ValueError(_bad_count([0.0, INF], outs))
        starts = []
        runs = []
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
        built.append(StepProfile._unchecked(tuple(starts), tuple(runs)))
    return built
