"""Build step acts, evaluate them in both integration orders, splice them.

An act maps (state, time) to an outcome.  Its value integrates utility
against beliefs times the discount measure; integrating states-then-time or
time-then-states gives the same number, and cutting an act at a time t
decomposes its value into a prefix integral plus a discounted tail.
"""

from dseu import (
    Beliefs,
    DSEUModel,
    ExpMeasure,
    GridAct,
    StepProfile,
    UtilityModel,
    decomposition_check,
    splice_time,
)

model = DSEUModel(
    ExpMeasure(1.0),
    UtilityModel({"good": 1.0, "fair": 0.4, "bad": 0.0}),
    Beliefs({"boom": 0.35, "flat": 0.45, "bust": 0.2}),
)

act = GridAct(
    {
        "boom": StepProfile.from_breakpoints([2.0], ["good", "fair"]),
        "flat": StepProfile.constant("fair"),
        "bust": StepProfile.from_breakpoints([0.5, 1.5], ["fair", "bad", "fair"]),
    }
)

print("== the act, row by row ==")
for s in act.states:
    pieces = list(act.row(s).segments())
    print(f"  {s}: {pieces}")

print("\n== same value in either integration order ==")
print(f"  states first: {model.act_value(act)!r}")
print(f"  time first:   {model.act_value_dual(act)!r}")

print("\n== a bet is a stochastic act; its value is the believed win mass ==")
bet = GridAct.bet(model.states, {"boom"}, "good", "bad")
print(f"  bet on boom: {model.act_value(bet)!r}  (mu(boom) = 0.35)")

print("\n== splicing and the prefix/tail decomposition ==")
head = GridAct.constant(model.states, "bad")
for t in (0.0, 0.7, 2.0):
    spliced = splice_time(head, t, act)
    lhs, rhs = decomposition_check(model, head, t, act)
    print(
        f"  t={t}: value(head before t, act after) = {model.act_value(spliced):.12f}"
        f"   prefix + e^(-rate t) * value = {rhs:.12f}   gap {abs(lhs - rhs):.2e}"
    )
