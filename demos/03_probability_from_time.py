"""Recover beliefs from waiting times, using only yes/no comparisons.

The session never sees the decision maker's parameters.  It first finds the
half-life (pinning the discount rate), then asks, for each event, how long a
sure payment must run to match a bet on that event; mapping that time through
the prefix mass yields the event's probability.  For an expected-utility
decision maker the recovered set function is additive; the worked chain at
the end shows the two axioms that force additivity, acted out on seven
matrices of outcomes.
"""

from dseu import (
    Beliefs,
    DSEUModel,
    ExpMeasure,
    SEUOracle,
    UtilityModel,
    run_session,
    section2_demo,
)

TRUE_RATE = 0.9
TRUE_BELIEFS = {"rain": 0.22, "cloud": 0.33, "sun": 0.45}

hidden = SEUOracle(
    DSEUModel(
        ExpMeasure(TRUE_RATE),
        UtilityModel({"cake": 1.0, "none": 0.0}),
        Beliefs(TRUE_BELIEFS),
    )
)

print("== elicitation session against a hidden decision maker ==")
report = run_session(hidden, "cake", "none")
print(f"  true rate {TRUE_RATE}        recovered {report.lambda_hat:.9f}")
for state, p in TRUE_BELIEFS.items():
    got = report.mu_hat[frozenset({state})]
    print(f"  true mu({state}) = {p:<5}  recovered {got:.9f}")
print(f"  queries asked: {report.query_count}")
print(f"  worst additivity residual: {report.max_residual:.2e} -> {report.verdict}")

print("\n== why additivity follows: the seven-matrix chain ==")
trace = section2_demo(ExpMeasure(1.0), 0.3, 0.2)
print(f"  half-life probe t = {trace.t_half:.6f}")
print(
    f"  time equivalents: t_E={trace.t_e:.6f} t_F={trace.t_f:.6f}"
    f" t_EuF={trace.t_union:.6f} t'_F={trace.t_f_prime:.6f}"
)
for (a, b), gap in trace.indifference_gaps.items():
    print(f"  {a:24s} ~ {b:24s}  value gap {gap:+.2e}")
print(f"  additivity identity residual: {trace.identity_residual:+.2e}")
print(
    f"  recovered: mu(E)={trace.mu_hat['e']}, mu(F)={trace.mu_hat['f']},"
    f" mu(EuF)={trace.mu_hat['union']}"
)
