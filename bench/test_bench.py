"""Smoke tests of the benchmark itself: tiny runs of every workload.

Run from the repository root with ``python -m pytest bench``.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import dseu  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def counter():
    patches = tracing.Patches()
    qc = tracing.QueryCounter()
    qc.install(patches)
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield qc
    finally:
        patches.restore()
        signal.signal(signal.SIGALRM, old)


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_spec_matches_the_metrics_the_code_prints():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert sorted(WORKLOADS) == sorted(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == tracing.METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = _cli("--workload", workload, "--seed", "3", "--trace", trace, "--ops", "2")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    meta = json.loads(lines[0].removeprefix("meta "))
    assert meta["seed"] == 3 and meta["python"] and meta["git_sha"] and meta["nproc"]
    if trace == "0":
        assert any(line.startswith("error_rate") for line in lines)


def test_run_without_library_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli("--workload", "elicit", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _plant_violation(result) -> None:
    """Log a violation whose answer the oracle does not give."""
    oracle, report = result
    high, low = (dseu.GridAct.constant(oracle.states, x) for x in ("high", "low"))
    wrong = (high, low, dseu.Preference.STRICTLY_PREFERS_SECOND)
    report.checks["stationarity"].violations.append(dseu.Violation("planted", [wrong]))


CORRUPT = {
    "elicit": lambda r: setattr(r, "lambda_hat", r.lambda_hat * 1.001),
    "audit": _plant_violation,
    "long_acts": lambda r: r.update(dual=r["dual"] + 1e-9),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_result_is_a_failed_op(workload, counter, monkeypatch):
    w = workloads.WORKLOADS[workload]
    pool = workloads.make_pool(w, 5)
    honest = w.run

    def corrupted(raw, region, lap):
        result = honest(raw, region, lap)
        CORRUPT[workload](result)
        return result

    monkeypatch.setattr(w, "run", corrupted)
    records = run.run_ops(w, pool, 0, 2, counter)
    assert [r.status for r in records] == ["wrong", "wrong"]
    assert run.end_to_end(records, w.deadline_s)["success_rate"] == 0.0


def test_indifferent_respondent_hits_the_deadline_and_the_run_goes_on(counter):
    w = workloads.WORKLOADS["audit"]
    pool = workloads.make_pool(w, 1)
    records = run.run_ops(w, pool, w.cycle - 1, 2, counter)
    assert pool[w.cycle - 1]["kind"] == "indifferent"
    assert [r.status for r in records] == ["deadline", "ok"]


def test_seu_audit_keeps_all_seven_checks_under_the_query_counter(counter):
    w = workloads.WORKLOADS["audit"]
    raw = workloads.make_pool(w, 1)[0]
    assert raw["kind"] == "seu"
    oracle, report = w.run(raw, None, lambda: None)
    assert set(report.checks) == workloads.AUDIT_CHECKS
    assert counter.count > 0
    assert type(oracle) is dseu.SEUOracle


def test_wrappers_cover_every_binding_site_and_restore():
    originals = (dseu.acts.splice_time, dseu.evaluate.profile_value)
    patches = tracing.Patches()
    tracing.Tracer().install(patches)
    try:
        for module in (dseu.audit, dseu.evaluate, dseu.aa, dseu.acts, dseu):
            assert module.splice_time is not originals[0]
        assert dseu.oracles.profile_value is dseu.evaluate.profile_value
        assert dseu.oracles.profile_value is not originals[1]
        assert dseu.elicitation.time_equivalent_bisect is dseu.equivalents.time_equivalent_bisect
    finally:
        patches.restore()
    assert dseu.audit.splice_time is originals[0]
    assert dseu.oracles.profile_value is originals[1]


def test_trace_counts_repeat_and_rows_match_state_counts(counter):
    w = workloads.WORKLOADS["elicit"]
    pool = workloads.make_pool(w, 2)
    runs = []
    for _ in range(2):
        patches = tracing.Patches()
        tracer = tracing.Tracer()
        tracer.install(patches)
        try:
            run.run_ops(w, pool, 0, 4, counter, tracer)
        finally:
            patches.restore()
        runs.append(tracer.metrics(workloads.AUDIT_SAMPLES))
    counts = [
        {k: v for k, v in m.items() if not k.endswith(("us_per_call", "ms_per_op"))}
        for m in runs
    ]
    assert counts[0] == counts[1]
    mean_states = sum(len(raw["probs"]) for raw in pool[:4]) / 4
    assert runs[0]["evaluate.rows_per_valuation"] == mean_states
    assert runs[0]["oracles.compare.calls_per_op"] > 0


def test_op_times_are_rescaled_by_the_reference_around_them(counter):
    w = workloads.WORKLOADS["long_acts"]
    records = run.run_ops(w, workloads.make_pool(w, 4), 0, 3, counter)
    assert all(len(r.laps) == 7 for r in records)
    for r in records:
        assert len(r.refs) == len(r.laps) + 1 and sum(r.laps) == r.seconds
        assert min(r.refs) > 0
    ref = run.REFERENCE_S
    r = run.OpRecord(3.0, "ok", 0, laps=(1.0, 2.0), refs=(ref, 3 * ref, ref))
    assert r.calibrated().seconds == pytest.approx(1.0 / 2 + 2.0 / 2)
    stopped = run.OpRecord(1.5, "deadline", 0, laps=(1.5,), refs=(ref, 3 * ref))
    assert stopped.calibrated() == stopped
