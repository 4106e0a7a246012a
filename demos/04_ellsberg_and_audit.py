"""An ambiguity-sensitive decision maker, detected two independent ways.

A capacity that gives each color of the unknown urn weight 0.45 (instead of
additive halves) strictly prefers the deterministic half-life stream - the
time analogue of a known 50/50 bet - over betting on either color.  The same
non-additivity shows up as a 0.1 residual in the elicitation audit, which
flags the capacity.  The axiom audit cannot: its witnesses are deterministic
acts, and on those every capacity weighs the whole state set 1, like an
additive belief.  So it runs here on the additive decision maker, and on a
value functional that breaks stationarity, which it does catch.
"""

from dseu import (
    Beliefs,
    Capacity,
    ChoquetOracle,
    DSEUModel,
    ExpMeasure,
    FunctionalOracle,
    GridAct,
    SEUOracle,
    StepProfile,
    UtilityModel,
    check_stationarity,
    elicit_measure,
    run_audit,
)

states = ("red", "black")
util = UtilityModel({"win": 1.0, "lose": 0.0})
rate = ExpMeasure(1.0)

ambiguous = ChoquetOracle(
    rate,
    util,
    Capacity(
        states,
        {
            frozenset(): 0.0,
            frozenset({"red"}): 0.45,
            frozenset({"black"}): 0.45,
            frozenset(states): 1.0,
        },
    ),
)
confident = SEUOracle(DSEUModel(rate, util, Beliefs.uniform(states)))

print("== the two-urn pattern, with time playing the known urn ==")
stream = GridAct.deterministic(states, StepProfile.before_after("win", rate.half_life, "lose"))
for name, act in (
    ("bet on red", GridAct.bet(states, {"red"}, "win", "lose")),
    ("bet on black", GridAct.bet(states, {"black"}, "win", "lose")),
    ("half-life sure stream", stream),
):
    print(
        f"  {name:22s} capacity value {ambiguous.value(act):.4f}"
        f"   additive value {confident.value(act):.4f}"
    )
print("  -> the capacity holder strictly prefers the stream to either bet;")
print("     the additive holder is exactly indifferent.")

print("\n== the elicitation audit sees the same thing ==")
found = elicit_measure(ambiguous, rate, "win", "lose")
print(f"  capacity decision maker: max residual {found.max_residual:.6f} -> {found.verdict}")
found = elicit_measure(confident, rate, "win", "lose")
print(f"  additive decision maker: max residual {found.max_residual:.2e} -> {found.verdict}")

print("\n== full axiom audit of the additive decision maker ==")
audit = run_audit(confident, samples=150, seed=0)
for name, check in audit.checks.items():
    print(f"  {name:20s} {check.verdict}")

print("\n== a value functional that fails stationarity (squared utilities) ==")
mixed = DSEUModel(
    ExpMeasure(1.0),
    UtilityModel({"win": 1.0, "lose": -1.0, "meh": 0.3}),
    Beliefs.uniform(states),
)
squared = FunctionalOracle(
    fn=lambda act: mixed.act_value(act) ** 2,
    states=states,
    outcomes=tuple(mixed.outcomes),
    discount=mixed.discount,
)
report = check_stationarity(squared, samples=200, seed=1)
print(f"  stationarity: {report.verdict} with {len(report.violations)} logged violations")
if report.violations:
    witness = report.violations[0]
    print(f"  first violation replays deterministically: {witness.replay(squared)}")
