"""Byte-for-byte pins of the command line's output on the committed demo data.

Each case runs one subcommand twice on ``demos/data``: once printing the
document to stdout, once writing it with ``--out``.  Both must match the
files in ``tests/data/cli_golden/`` exactly.  To re-pin after a deliberate
output change, run this file as a script:
``PYTHONPATH=src python tests/test_cli_golden.py``.
"""

import contextlib
import io
from pathlib import Path

import pytest

from dseu.cli import main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"

CASES = {
    "eval": ["eval", "model.json", "act.json"],
    "equiv_closed": ["equiv", "act.json", "--model", "model.json", "--upper", "high", "--lower", "low"],
    "equiv_oracle": ["equiv", "act.json", "--oracle", "oracle_seu.json", "--upper", "high", "--lower", "low"],
    "elicit_seu": ["elicit", "oracle_seu.json"],
    "elicit_choquet": ["elicit", "oracle_choquet.json"],
    "audit_seu": ["audit", "oracle_seu.json", "--samples", "20", "--seed", "7"],
    "audit_choquet": ["audit", "oracle_choquet.json", "--samples", "20", "--seed", "7"],
    "bracket": ["bracket", "model.json", "act.json", "--bins", "16"],
    "bracket_profile": ["bracket", "model.json", "stream.json", "--bins", "4", "--mode", "profile"],
    "aa": ["aa", "model.json", "act.json", "--witnesses"],
    "demo_section2": ["demo-section2"],
    "demo_ellsberg": ["demo-ellsberg"],
}


def _argv(case: str) -> list[str]:
    return [str(DATA / a) if a.endswith(".json") else a for a in CASES[case]]


def _run(argv: list[str], capsys) -> str:
    assert main(argv) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, capsys):
    out = _run(_argv(case), capsys)
    assert out.encode() == (GOLDEN / f"{case}.stdout").read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_out_file_matches_golden(case, capsys, tmp_path):
    path = tmp_path / "out.json"
    out = _run([*_argv(case), "--out", str(path)], capsys)
    assert out.endswith(f"wrote {path}\n")
    assert path.read_bytes() == (GOLDEN / f"{case}.json").read_bytes()


def _write_goldens() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(_argv(case)) == 0
        (GOLDEN / f"{case}.stdout").write_bytes(buf.getvalue().encode())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([*_argv(case), "--out", str(GOLDEN / f"{case}.json")]) == 0


if __name__ == "__main__":
    _write_goldens()
