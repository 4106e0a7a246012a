"""Instrumentation the benchmark installs around dseu's public functions.

Nothing in the library is edited: every wrapper is installed from outside by
rebinding names, and removed again by :meth:`Patches.restore`.

* :class:`QueryCounter` counts oracle ``compare`` calls that are not nested in
  another ``compare``, so each question put to the outermost oracle counts
  once however the oracles wrap each other.  No oracle object is wrapped, so
  ``isinstance`` and ``getattr`` branches in the library (``run_audit``)
  behave exactly as without the benchmark.  It is installed in every run.
* :class:`Tracer` records a span (name, start, end, parent span, op id)
  around each function in :data:`SPANS`, and a plain call counter around the
  ``measure`` functions in :data:`COUNTERS`, which run about 1e5 times per
  run and would swamp a span trace.

A module-level function is rebound at every binding site: the defining
module, each ``dseu`` module that imported it by name (``splice_time`` into
``audit``, ``evaluate`` and ``aa``; ``profile_value`` into ``oracles``;
``time_equivalent_bisect`` into ``elicitation``) and the package namespace.
A method is rebound on its class, which every call looks up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from array import array
from time import perf_counter

#: Span name for each traced function, as ``module:qualname``.  A ``*`` class
#: stands for every class of the module that defines the method itself.
SPANS = {
    "dseu.acts:StepProfile.before_after": "acts.before_after",
    "dseu.acts:StepProfile.from_breakpoints": "acts.from_breakpoints",
    "dseu.acts:StepProfile.normalized": "acts.normalized",
    "dseu.acts:GridAct.deterministic": "acts.deterministic",
    "dseu.acts:GridAct.constant": "acts.constant",
    "dseu.acts:GridAct.bet": "acts.bet",
    "dseu.acts:splice_time": "acts.splice_time",
    "dseu.acts:splice_event": "acts.splice_event",
    "dseu.evaluate:profile_value": "evaluate.profile_value",
    "dseu.evaluate:DSEUModel.act_value": "evaluate.act_value",
    "dseu.evaluate:DSEUModel.act_value_dual": "evaluate.act_value_dual",
    "dseu.evaluate:DSEUModel.prefix_value": "evaluate.prefix_value",
    "dseu.evaluate:decomposition_check": "evaluate.decomposition_check",
    "dseu.oracles:*.compare": "oracles.compare",
    "dseu.oracles:*.value": "oracles.value",
    "dseu.oracles:choquet_value": "oracles.choquet_value",
    "dseu.oracles:Capacity.epsilon_contamination": "oracles.epsilon_contamination",
    "dseu.equivalents:time_equivalent_bisect": "equivalents.bisect",
    "dseu.equivalents:time_equivalent_act": "equivalents.time_equivalent_act",
    "dseu.equivalents:time_equivalent_value": "equivalents.time_equivalent_value",
    "dseu.elicitation:run_session": "elicitation.run_session",
    "dseu.elicitation:elicit_lambda": "elicitation.elicit_lambda",
    "dseu.elicitation:elicit_measure": "elicitation.elicit_measure",
    "dseu.elicitation:elicit_event": "elicitation.elicit_event",
    "dseu.audit:run_audit": "audit.run_audit",
    "dseu.audit:check_stationarity": "audit.stationarity",
    "dseu.audit:check_t_monotonicity": "audit.t_monotonicity",
    "dseu.audit:check_dominance": "audit.dominance",
    "dseu.audit:check_t_separability": "audit.t_separability",
    "dseu.audit:check_monotone_continuity": "audit.monotone_continuity",
    "dseu.audit:check_decomposition": "audit.decomposition",
    "dseu.sampling:ActSampler.profile": "sampling.profile",
    "dseu.sampling:ActSampler.act": "sampling.act",
    "dseu.sampling:ActSampler.time_set": "sampling.time_set",
    "dseu.sampling:ActSampler.disjoint_time_sets": "sampling.disjoint_time_sets",
    "dseu.sampling:ActSampler.splice_time_point": "sampling.splice_time_point",
    "dseu.aa:aa_value": "aa.aa_value",
    "dseu.aa:reduce_act": "aa.reduce_act",
    "dseu.aa:reduce_profile": "aa.reduce_profile",
    "dseu.bracketing:bracket_profile": "bracketing.bracket_profile",
    "dseu.serialize:act_to_json": "serialize.act_to_json",
    "dseu.serialize:act_from_json": "serialize.act_from_json",
    "dseu.serialize:dumps": "serialize.dumps",
}

COUNTERS = {
    "dseu.measure:ExpMeasure.interval_mass": "measure.interval_mass",
    "dseu.measure:ExpMeasure.quantile": "measure.quantile",
    "dseu.measure:ExpMeasure.split": "measure.split",
}

#: Span the benchmark opens itself around the JSON round trip of an act.
ROUNDTRIP = "serialize.act_roundtrip"

LAYERS = (
    "acts",
    "evaluate",
    "oracles",
    "equivalents",
    "elicitation",
    "audit",
    "sampling",
    "aa",
    "bracketing",
    "serialize",
)

AUDIT_CHECKS = (
    "stationarity",
    "t_monotonicity",
    "dominance",
    "t_separability",
    "monotone_continuity",
    "decomposition",
)

#: Every per-layer metric: name -> (unit, better).  Ratios are taken per op
#: and averaged over the ops that have a nonzero denominator; everything else
#: is a total over the traced ops divided by the ops or by the calls.
METRICS = {
    "evaluate.rows_per_valuation": ("rows/call", "lower"),
    "evaluate.act_value.us_per_call": ("us/call", "lower"),
    "oracles.compare.us_per_call": ("us/call", "lower"),
    "acts.normalized.calls_per_op": ("calls/op", "lower"),
    "oracles.compare.calls_per_op": ("calls/op", "lower"),
    "equivalents.bisect.calls_per_op": ("calls/op", "lower"),
    "equivalents.queries_per_bisect": ("queries/call", "lower"),
    "elicitation.elicit_event.calls_per_op": ("calls/op", "lower"),
    "elicitation.queries_per_event": ("queries/call", "lower"),
    "elicitation.elicit_lambda.queries": ("queries/op", "lower"),
    "evaluate.act_value_dual.us_per_call": ("us/call", "lower"),
    "acts.splice_event.us_per_call": ("us/call", "lower"),
    "acts.splice_time.us_per_call": ("us/call", "lower"),
    "evaluate.prefix_value.us_per_call": ("us/call", "lower"),
    "bracketing.bracket_profile.us_per_call": ("us/call", "lower"),
    "aa.reduce_act.us_per_call": ("us/call", "lower"),
    "serialize.act_roundtrip.us_per_call": ("us/call", "lower"),
    **{f"audit.{c}.ms_per_op": ("ms/op", "lower") for c in AUDIT_CHECKS},
    "audit.t_monotonicity.draws_per_sample": ("draws/sample", "lower"),
    "audit.dominance.draws_per_sample": ("draws/sample", "lower"),
    "sampling.profile.calls_per_op": ("calls/op", "lower"),
    "sampling.disjoint_time_sets.calls_per_op": ("calls/op", "lower"),
    "acts.splice_event.calls_per_op": ("calls/op", "lower"),
    **{f"{n}.calls_per_op": ("calls/op", "lower") for n in COUNTERS.values()},
    **{f"{layer}.self_ms_per_op": ("ms/op", "lower") for layer in LAYERS},
    "trace.overhead": ("ratio", "higher"),
}


class Patches:
    """Rebinds library names to wrappers and puts the originals back."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        # vars() keeps a classmethod as the descriptor, not a bound method.
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def wrap(self, target: str, make) -> None:
        """Replace ``module:qualname`` by ``make(original)`` at every binding site."""
        modname, qualname = target.split(":")
        module = importlib.import_module(modname)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapped = make(original)
            sites = [
                (mod, attr)
                for name, mod in list(sys.modules.items())
                if name == "dseu" or name.startswith("dseu.")
                for attr, value in vars(mod).items()
                if value is original
            ]
            for mod, attr in sites:
                self._set(mod, attr, wrapped)
            return
        clsname, meth = qualname.split(".")
        if clsname == "*":
            classes = [
                obj
                for obj in vars(module).values()
                if isinstance(obj, type)
                and obj.__module__ == modname
                and meth in obj.__dict__
            ]
        else:
            classes = [getattr(module, clsname)]
        for cls in classes:
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                self._set(cls, meth, classmethod(make(raw.__func__)))
            else:
                self._set(cls, meth, make(raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class QueryCounter:
    """Counts outermost ``compare`` calls; :meth:`reset` at each op start."""

    def __init__(self) -> None:
        self.count = 0
        self._depth = 0

    def reset(self) -> None:
        self.count = 0
        self._depth = 0

    def install(self, patches: Patches) -> None:
        patches.wrap("dseu.oracles:*.compare", self._wrap)

    def _wrap(self, fn):
        counter = self

        @functools.wraps(fn)
        def compare(*args, **kwargs):
            if counter._depth:
                return fn(*args, **kwargs)
            counter.count += 1
            counter._depth = 1
            try:
                return fn(*args, **kwargs)
            finally:
                counter._depth = 0

        return compare


class Tracer:
    """In-memory span store plus per-op call counters.

    Spans are kept in parallel arrays; a span's parent index is always lower
    than its own, which the analysis relies on.  Nothing is recorded outside
    an op (between :meth:`begin` and :meth:`end`), so the benchmark's own
    correctness checks never enter the trace.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.kind = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._op = -1
        self._counts = dict.fromkeys(COUNTERS.values(), 0)
        self.op_counts: dict[int, dict[str, int]] = {}
        self.ok_ops: set[int] = set()

    def install(self, patches: Patches) -> None:
        for target, name in SPANS.items():
            patches.wrap(target, functools.partial(self._span_wrapper, name))
        for target, name in COUNTERS.items():
            patches.wrap(target, functools.partial(self._count_wrapper, name))

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        i = len(self.starts)
        self.kind.append(nid)
        self.parent.append(self._stack[-1])
        self.op_of.append(self._op)
        self.ends.append(0.0)
        self.starts.append(perf_counter())
        self._stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._op < 0:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(i)

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self._counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def region(self, name: str):
        """A span the benchmark opens around its own code inside an op."""
        if self._op < 0:
            yield
            return
        i = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(i)

    def begin(self, op: int) -> None:
        for name in self._counts:
            self._counts[name] = 0
        self._stack[:] = [-1]
        self._op = op

    def end(self, op: int, ok: bool) -> None:
        # A deadline can interrupt a span before it closes; close it at op end.
        now = perf_counter()
        for i in self._stack[1:]:
            self.ends[i] = now
        self._stack[:] = [-1]
        self._op = -1
        self.op_counts[op] = dict(self._counts)
        if ok:
            self.ok_ops.add(op)

    def write(self, path) -> None:
        """Every span as a tab-separated line, times in ns from the first span.

        ``name`` is an index into the list of names on the first line.
        """
        t0 = self.starts[0] if len(self.starts) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("# names: " + " ".join(self.names) + "\n")
            out.write("op\tspan\tparent\tname\tstart_ns\tend_ns\n")
            out.writelines(
                "%d\t%d\t%d\t%d\t%d\t%d\n"
                % (op, i, parent, kind, (start - t0) * 1e9, (end - t0) * 1e9)
                for i, (op, parent, kind, start, end) in enumerate(
                    zip(self.op_of, self.parent, self.kind, self.starts, self.ends)
                )
            )

    def metrics(self, audit_samples: int) -> dict[str, float]:
        """Per-layer metrics over the successful traced ops (see :data:`METRICS`)."""
        ok = self.ok_ops
        n_ops = max(len(ok), 1)
        n = len(self.starts)
        # Ancestor names as a bitmask, for the few names ratios condition on.
        marks = {
            "oracles.value": 1,
            "oracles.compare": 2,
            "equivalents.bisect": 4,
            "elicitation.elicit_event": 8,
            "elicitation.elicit_lambda": 16,
            "audit.t_monotonicity": 32,
            "audit.dominance": 64,
        }
        bit_of = [marks.get(name, 0) for name in self.names]
        above = [0] * n
        child_time = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                above[i] = above[p] | bit_of[self.kind[p]]
                child_time[p] += self.ends[i] - self.starts[i]

        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_time: dict[str, float] = {}
        per_op: dict[int, dict[str, float]] = {op: {} for op in ok}

        def bump(op: int, key: str) -> None:
            row = per_op[op]
            row[key] = row.get(key, 0) + 1

        for i in range(n):
            op = self.op_of[i]
            if op not in ok:
                continue
            name = self.names[self.kind[i]]
            dur = self.ends[i] - self.starts[i]
            calls[name] = calls.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + dur
            layer = name.split(".", 1)[0]
            self_time[layer] = self_time.get(layer, 0.0) + dur - child_time[i]
            up = above[i]
            if name == "oracles.value" and not up & 1:
                bump(op, "valuations")
            elif name == "evaluate.profile_value" and up & 1:
                bump(op, "rows")
            elif name == "oracles.compare" and not up & 2:
                if up & 4:
                    bump(op, "bisect_queries")
                if up & 8:
                    bump(op, "event_queries")
                if up & 16:
                    bump(op, "lambda_queries")
            elif name == "equivalents.bisect":
                bump(op, "bisects")
            elif name == "elicitation.elicit_event":
                bump(op, "events")
            elif name == "sampling.profile" and up & 32:
                bump(op, "tmono_draws")
            elif name == "sampling.act" and up & 64:
                bump(op, "dominance_draws")
            elif name == "audit.t_monotonicity":
                bump(op, "tmono_checks")
            elif name == "audit.dominance":
                bump(op, "dominance_checks")

        def ratio(num: str, den: str, scale: float = 1.0) -> float:
            values = [
                row.get(num, 0) / (row[den] * scale)
                for row in per_op.values()
                if row.get(den)
            ]
            return sum(values) / len(values) if values else 0.0

        def us_per_call(name: str) -> float:
            return busy.get(name, 0.0) / calls[name] * 1e6 if calls.get(name) else 0.0

        out = {
            "evaluate.rows_per_valuation": ratio("rows", "valuations"),
            "oracles.compare.calls_per_op": calls.get("oracles.compare", 0) / n_ops,
            "equivalents.bisect.calls_per_op": calls.get("equivalents.bisect", 0) / n_ops,
            "equivalents.queries_per_bisect": ratio("bisect_queries", "bisects"),
            "elicitation.elicit_event.calls_per_op": calls.get("elicitation.elicit_event", 0) / n_ops,
            "elicitation.queries_per_event": ratio("event_queries", "events"),
            "elicitation.elicit_lambda.queries": sum(
                row.get("lambda_queries", 0) for row in per_op.values()
            ) / n_ops,
            "audit.t_monotonicity.draws_per_sample": ratio(
                "tmono_draws", "tmono_checks", audit_samples
            ),
            "audit.dominance.draws_per_sample": ratio(
                "dominance_draws", "dominance_checks", audit_samples
            ),
            "acts.normalized.calls_per_op": calls.get("acts.normalized", 0) / n_ops,
            "sampling.profile.calls_per_op": calls.get("sampling.profile", 0) / n_ops,
            "sampling.disjoint_time_sets.calls_per_op": calls.get("sampling.disjoint_time_sets", 0) / n_ops,
            "acts.splice_event.calls_per_op": calls.get("acts.splice_event", 0) / n_ops,
        }
        for name in (
            "evaluate.act_value",
            "oracles.compare",
            "evaluate.act_value_dual",
            "acts.splice_event",
            "acts.splice_time",
            "evaluate.prefix_value",
            "bracketing.bracket_profile",
            "aa.reduce_act",
            ROUNDTRIP,
        ):
            out[f"{name}.us_per_call"] = us_per_call(name)
        for check in AUDIT_CHECKS:
            out[f"audit.{check}.ms_per_op"] = busy.get(f"audit.{check}", 0.0) * 1e3 / n_ops
        for name in COUNTERS.values():
            out[f"{name}.calls_per_op"] = sum(
                self.op_counts[op][name] for op in ok
            ) / n_ops
        for layer in LAYERS:
            out[f"{layer}.self_ms_per_op"] = self_time.get(layer, 0.0) * 1e3 / n_ops
        return out
