"""Discounted subjective expected utility over continuous time.

Exact arithmetic for the exponential discount measure, step acts over a
finite state space, their expected-utility evaluation in both integration
orders, time-equivalent elicitation of rates and probabilities, reduction
of acts to state-indexed lotteries, two-outcome sandwich brackets, and an
axiom-audit harness for arbitrary preference oracles.
"""

from .acts import (
    Event,
    GridAct,
    Outcome,
    State,
    StepProfile,
    restrict,
    splice_event,
    splice_time,
)
from .aa import (
    Lottery,
    LotteryAct,
    aa_value,
    continuity_witness,
    independence_witness,
    mix,
    realize_lottery,
    realize_lottery_act,
    reduce_act,
    reduce_profile,
    reduce_profile_on,
)
from .audit import (
    AuditReport,
    CheckReport,
    Violation,
    check_decomposition,
    check_dominance,
    check_monotone_continuity,
    check_stationarity,
    check_t_monotonicity,
    check_t_separability,
    run_audit,
)
from .bracketing import (
    BracketResult,
    bracket_act,
    bracket_profile,
    independent_selection,
    utility_bins,
)
from .elicitation import (
    ElicitationReport,
    Section2Trace,
    elicit_event,
    elicit_lambda,
    elicit_measure,
    run_session,
    section2_demo,
)
from .equivalents import (
    TimeEquivalent,
    time_equivalent_act,
    time_equivalent_bisect,
    time_equivalent_value,
)
from .evaluate import (
    Beliefs,
    DSEUModel,
    UtilityModel,
    decomposition_check,
    profile_value,
)
from .measure import INF, ExpMeasure, TimeInterval, TimeSet
from .oracles import (
    Capacity,
    ChoquetOracle,
    CountingOracle,
    FunctionalOracle,
    Preference,
    ProtocolError,
    SEUOracle,
    WidenedOracle,
    choquet_value,
)
from .sampling import ActSampler

__all__ = [name for name in dir() if not name.startswith("_")]
