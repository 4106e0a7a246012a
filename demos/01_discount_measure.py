"""Walk through the exponential discount measure and its exact set arithmetic.

The measure assigns the prefix [0, t) mass 1 - exp(-rate*t), so "probability
over time" and "discounting" are the same object.  Everything below is closed
form; no integration is performed anywhere.
"""

import math

from dseu import ExpMeasure, TimeInterval, TimeSet

rate = ExpMeasure(math.log(2.0))  # half-life of exactly one time unit

print("== prefix masses ==")
for t in (0.5, 1.0, 2.0, 5.0):
    print(f"  mass of [0, {t}) = {rate.cdf(t):.6f}")

print("\n== quantiles invert the prefix mass ==")
for p in (0.25, 0.5, 0.9):
    t = rate.quantile(p)
    print(f"  quantile({p}) = {t:.6f}, and cdf back: {rate.cdf(t):.15f}")

print("\n== masses of interval unions are sums of survival differences ==")
ts = TimeSet.from_pairs([(0.0, 0.5), (1.0, 2.0), (3.0, math.inf)])
print(f"  set: {list(ts)}")
print(f"  mass = {rate.mass(ts):.6f}")
print(f"  complement mass = {rate.mass(ts.complement()):.6f} (sums to 1)")

print("\n== the shift identity: translating a set scales its mass by e^(-rate*t) ==")
for t in (0.5, 1.0, 3.0):
    lhs = rate.mass(ts.shift(t))
    rhs = rate.sf(t) * rate.mass(ts)
    print(f"  t={t}: mass(t+A) = {lhs:.12f}   e^(-rate t)*mass(A) = {rhs:.12f}")

print("\n== proportional splits place boundaries at quantiles ==")
window = TimeInterval(0.0, 1.0)
parts = rate.split(window, (0.5, 0.3, 0.2))
for part, share in zip(parts, (0.5, 0.3, 0.2)):
    print(
        f"  [{part.lo:.6f}, {part.hi:.6f}) holds {rate.mass(part):.6f}"
        f" = {share} x mass(window) = {share * rate.mass(window):.6f}"
    )
