"""dseu benchmark: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload elicit --seed 1 --seconds 10 --trace 0

Workloads (see ``bench/workloads.py``): ``elicit``, ``audit``, ``long_acts``.
One client, one process, one thread: each op starts when the previous one
has ended and been checked.  The library is imported from ``src/`` of the
checkout the script sits in; without it the run fails before printing a
result.

``--trace 0`` measures the end-to-end metrics.  Ops run in whole cycles
until ``--seconds`` have passed and at least ``MIN_OPS`` ops have run, so
ten or more ops lie beyond the 90th percentile.

Op times are given at a fixed nominal host speed.  A shared host changes
speed by 2x and more, for spells of seconds to minutes, so raw wall times
of one op set differ from run to run by more than the bounds.  Before and
after each op, and between the steps of a long op, the benchmark times
``reference()``, a fixed pure-Python computation outside the library (see
:class:`Stopwatch`).  Each stretch of op time is multiplied by
``REFERENCE_S`` over the mean of the two reference times around it: it is
the time the stretch would take on a host where ``reference()`` takes
``REFERENCE_S``.  The library cannot change the reference, so the ratio
moves with the library only.  An op stopped at its deadline keeps its wall
time, which the deadline's timer set.  The raw wall-time figures are
printed beside the result, outside the JSON line.  ``setup_s`` is rescaled
the same way, from reference times taken inside each set-up probe (see
:func:`measure_setup`).  Per-layer times are raw.

* ``setup_s``: median over ``SETUP_PROBES`` fresh processes of the time from
  spawning the process to the point where the first op could start (Python
  start-up, ``import dseu``, every raw input generated from the seed),
  leaving out the probe's own reference timings.
* ``ops_per_s``: successful ops over the summed time of all ops, failed
  ones included (the benchmark's own checks are not counted).
* ``op_p50_ms``, ``op_p90_ms``: op latency; failed ops rank above every
  success, at the workload's deadline.
* ``queries_per_op``: outermost oracle ``compare`` calls per successful op.
* ``success_rate``: ops that returned a checked-correct result in time, over
  ops attempted; ``error_rate = 1 - success_rate`` is printed beside it.
* ``peak_rss_mb``: peak resident set size of this process.

``--trace 1`` runs the workload's first ``trace_cycles`` cycles twice,
untraced and then traced; the op set depends on the seed alone, so its
counts repeat exactly.  It prints the per-layer metrics of
``bench/tracing.py``, including ``trace.overhead`` (traced over untraced
``ops_per_s``), and writes every span to ``.bench_build/trace-<workload>.tsv``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

MIN_OPS = 110
SETUP_PROBES = 7
#: Nominal ``reference()`` time: about its time on an idle 2.0 GHz Xeon vCPU.
REFERENCE_S = 0.5e-3


class OpDeadline(BaseException):
    """Raised by the alarm handler inside an op that outlived its deadline.

    A ``BaseException``, so that no ``except Exception`` in the library can
    swallow it and keep a hung op running.
    """


def _on_alarm(signum, frame):
    raise OpDeadline()


@dataclass
class OpRecord:
    seconds: float
    status: str  # "ok", "raised", "deadline" or "wrong"
    queries: int
    detail: str = ""
    laps: tuple[float, ...] = ()  # ``seconds`` cut at the op's laps
    refs: tuple[float, ...] = ()  # reference() times before, between and after the laps

    def calibrated(self) -> "OpRecord":
        """This record with its time rescaled to the nominal host speed."""
        if self.status == "deadline":
            return self
        return replace(self, seconds=at_nominal_speed(self.laps, self.refs))

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def reference() -> float:
    """Seconds that one run of a fixed pure-Python computation takes now.

    Float arithmetic, dict and list work in the interpreter, like dseu's own,
    but nothing from the library: its time tracks the host's speed alone.
    """
    start = time.perf_counter()
    rng = random.Random(1)
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(3000):
        x = rng.random()
        table[i % 97] = x
        acc += 0.5 * x - table.get(7 * i % 97, 0.0)
    sorted(table.values())
    return time.perf_counter() - start


def at_nominal_speed(laps, refs) -> float:
    """Seconds the laps would take where ``reference()`` takes ``REFERENCE_S``.

    ``refs`` holds the reference times before, between and after the laps.
    """
    return sum(2 * REFERENCE_S * t / (a + b) for t, a, b in zip(laps, refs, refs[1:]))


class Stopwatch:
    """An op's wall time, cut into laps with a ``reference()`` timing at each cut.

    The workload calls :meth:`lap` between the steps of a long op, so that
    each step is rescaled by the host speed measured next to it.  The
    reference's own time falls in no lap.
    """

    def __init__(self) -> None:
        self.first_ref = reference()
        self.cuts: list[tuple[float, float]] = []  # (lap seconds, reference() after it)
        self.mark = time.perf_counter()

    def lap(self) -> None:
        end = time.perf_counter()
        # One append, so that the op's deadline cannot split a lap from its reference.
        self.cuts.append((end - self.mark, reference()))
        self.mark = time.perf_counter()

    @property
    def laps(self) -> tuple[float, ...]:
        return tuple(t for t, _ in self.cuts)

    @property
    def refs(self) -> tuple[float, ...]:
        return (self.first_ref, *(ref for _, ref in self.cuts))


def import_library():
    """Import ``dseu`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "dseu" / "__init__.py").is_file():
        raise SystemExit(f"error: no dseu sources under {src}")
    sys.path.insert(0, str(src))
    import dseu

    if Path(dseu.__file__).resolve().parent != (src / "dseu").resolve():
        raise SystemExit(f"error: imported dseu from {dseu.__file__}, not {src}")
    sys.path.insert(0, str(BENCH))
    import tracing
    import workloads

    return workloads, tracing


def run_ops(workload, pool, first: int, count: int, counter, tracer=None) -> list[OpRecord]:
    """Run ``count`` ops from pool index ``first`` in a closed loop."""
    region = tracer.region if tracer else (lambda name: contextlib.nullcontext())
    records = []
    for k in range(first, first + count):
        raw = pool[k % len(pool)]
        counter.reset()
        status, detail, result = "ok", "", None
        watch = Stopwatch()
        if tracer:
            tracer.begin(k)
        try:
            signal.setitimer(signal.ITIMER_REAL, workload.deadline_s)
            try:
                result = workload.run(raw, region, watch.lap)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpDeadline:
            status, detail = "deadline", f"over {workload.deadline_s} s"
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            status, detail = "raised", f"{type(exc).__name__}: {exc}"
        watch.lap()
        queries = counter.count
        if status == "ok":
            try:
                problems = workload.check(raw, result, queries)
            except Exception as exc:  # a check that cannot run counts as wrong
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            if problems:
                status, detail = "wrong", "; ".join(problems)
        if tracer:
            tracer.end(k, status == "ok")
        laps = watch.laps
        records.append(OpRecord(sum(laps), status, queries, detail, laps, watch.refs))
    return records


def run_cycles(workload, pool, counter, seconds: float, min_ops: int) -> list[OpRecord]:
    """Whole cycles until ``seconds`` have passed and ``min_ops`` ops have run."""
    records: list[OpRecord] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(records) < min_ops:
        records += run_ops(workload, pool, len(records), workload.cycle, counter)
    return records


def end_to_end(records: list[OpRecord], deadline: float) -> dict[str, float]:
    ok = [r for r in records if r.ok]
    n_failed = len(records) - len(ok)
    latencies = sorted(r.seconds for r in ok) + [max(deadline, *(r.seconds for r in records))] * n_failed
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "ops_per_s": len(ok) / sum(r.seconds for r in records),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "queries_per_op": sum(r.queries for r in ok) / len(ok) if ok else 0.0,
        "success_rate": len(ok) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_setup(args) -> tuple[float, float]:
    """Median set-up time of fresh processes, at nominal speed and raw.

    A probe reports when its imports ended, then the laps of generating its
    inputs with ``reference()`` times between them (see :func:`main`).  The
    stretch from spawning to the end of the imports is rescaled by the
    probe's first reference time, each lap by the references around it.
    """
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--setup-probe",
    ]
    nominal, raw = [], []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr[-2000:]}")
        out = json.loads(proc.stdout)
        # perf_counter is the system-wide monotonic clock, so the probe's
        # timestamp and ``start`` compare.
        imports = out["imported"] - start
        nominal.append(imports * REFERENCE_S / out["refs"][0] + at_nominal_speed(out["laps"], out["refs"]))
        raw.append(imports + sum(out["laps"]))
    return statistics.median(nominal), statistics.median(raw)


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


#: Every end-to-end metric: name -> (unit, better).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("op/s", "higher"),
    "op_p50_ms": ("ms", "lower"),
    "op_p90_ms": ("ms", "lower"),
    "queries_per_op": ("queries", "lower"),
    "success_rate": ("fraction", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}


def report(
    args,
    metrics: dict[str, float],
    units: dict[str, str],
    records: list[OpRecord],
    notes: tuple[str, ...] = (),
) -> int:
    failed = [r for r in records if not r.ok]
    wrong = [r for r in failed if r.status == "wrong"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "ops": len(records),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:45s} {value:14.6f} {units[name]}")
    if not args.trace:
        print(f"{'error_rate':45s} {len(failed) / len(records):14.6f} fraction")
    for status in ("raised", "deadline", "wrong"):
        hits = [r for r in failed if r.status == status]
        if hits:
            print(f"failed ops ({status}): {len(hits)}, first: {hits[0].detail}")
    for note in notes:
        print(note)
    result = {
        "correct": not wrong,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    # Exact op count in place of the sizing above; for the benchmark's own tests.
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads, tracing = import_library()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    imported = time.perf_counter()
    for _ in range(2):
        reference()  # warm, so that the first timing below is a steady one
    watch = Stopwatch()
    pool = workloads.make_pool(workload, args.seed, watch.lap)
    # Keep the collector from rescanning the pool during ops.
    gc.collect()
    gc.freeze()
    watch.lap()
    if args.setup_probe:
        print(json.dumps({"imported": imported, "laps": watch.laps, "refs": watch.refs}))
        return 0

    units = {name: unit for name, (unit, _) in (END_TO_END | tracing.METRICS).items()}
    signal.signal(signal.SIGALRM, _on_alarm)
    patches = tracing.Patches()
    counter = tracing.QueryCounter()
    try:
        counter.install(patches)
        if not args.trace:
            setup_s, raw_setup_s = measure_setup(args)
            if args.ops:
                records = run_ops(workload, pool, 0, args.ops, counter)
            else:
                records = run_cycles(workload, pool, counter, args.seconds, MIN_OPS)
            refs = [ref for r in records for ref in r.refs]
            calibrated = [r.calibrated() for r in records]
            metrics = {"setup_s": setup_s, **end_to_end(calibrated, workload.deadline_s)}
            raw = end_to_end(records, workload.deadline_s)
            notes = (
                f"reference() median {statistics.median(refs) * 1e3:.4f} ms, min {min(refs) * 1e3:.4f} ms",
                "raw wall time: setup_s {:.6f}, ops_per_s {:.6f}, op_p50_ms {:.6f}, op_p90_ms {:.6f}".format(
                    raw_setup_s, *(raw[k] for k in ("ops_per_s", "op_p50_ms", "op_p90_ms"))
                ),
            )
            return report(args, metrics, units, records, notes)
        count = args.ops or workload.cycle * workload.trace_cycles
        plain = run_ops(workload, pool, 0, count, counter)
        tracer = tracing.Tracer()
        tracer.install(patches)
        records = run_ops(workload, pool, 0, count, counter, tracer)
    finally:
        patches.restore()
    metrics = tracer.metrics(workloads.AUDIT_SAMPLES)
    metrics["trace.overhead"] = (
        end_to_end([r.calibrated() for r in records], workload.deadline_s)["ops_per_s"]
        / end_to_end([r.calibrated() for r in plain], workload.deadline_s)["ops_per_s"]
    )
    out_dir = ROOT / ".bench_build"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"trace-{workload.name}.tsv")
    return report(args, {name: metrics[name] for name in tracing.METRICS}, units, records)


if __name__ == "__main__":
    sys.exit(main())
