"""Float addition left to right, the one summation rule of the library.

From CPython 3.12 ``sum()`` of floats is compensated, so a reference that
must equal the library bit for bit adds as the library does; on 3.10 and
3.11 this is what ``sum()`` computes.
"""


def left_sum(values):
    total = 0
    for x in values:
        total += x
    return total
