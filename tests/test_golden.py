"""CLI reports pinned on the bundled corpus.

Covers, on every corpus model, `validate`, `bisim` of every kind and
`check` with the fixed formulas of `CHECK_FORMULAS` (with and without
`--state` at the first state); `distinguish` on every ordered pair of
distinct states (exit 6 on the valid coarse model, exit 2 on the
invalid one); and a malformed formula on the invalid model, which
still reports its findings because every command validates first.
That is partitions, iteration counts, sigma atoms, findings, formula
text and extensions, i.e. everything a report holds except
`timing_ms`.  Only commands that print a report are pinned.  The report
is rendered as `json.dumps(..., indent=2, sort_keys=True)` renders it
(`tests/test_cli.py` `TestRender` holds the renderer to that), so the
parsed dictionary pins its bytes.

The golden file was recorded before the fixpoints shared one
refinement kernel.  Regenerate it only for an intended output change:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from nlmp import corpus_dir, parse_model
from nlmp.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")


# `{a}` is the first label of the model.
CHECK_FORMULAS = (
    "T",
    "<{a}>[T]>=1",
    "<{a}>[<{a}>[T]>0]>1/3 & T",
    "<{a}>(![T]<1 \\/ [<{a}>[T]>=1]<=1/2)",
    "<{a}>[ >1/4 <{a}>[T]>=1 , <3/4 <{a}>[T]>=1 ]",
)


def cases() -> list[list[str]]:
    out = []
    for path in sorted(corpus_dir().glob("*.nlmp")):
        out.append(["bisim", path.name, "--kind", "all"])
    for path in sorted(corpus_dir().glob("*.nlmp")):
        m = parse_model(path.read_text(encoding="utf-8"))
        if m.sigma.is_powerset:
            out += [["distinguish", path.name, s, t] for s in m.states for t in m.states if s != t]
    for path in sorted(corpus_dir().glob("*.nlmp")):
        m = parse_model(path.read_text(encoding="utf-8"))
        out.append(["validate", path.name])
        out += [["bisim", path.name, "--kind", kind] for kind in ("traditional", "state", "event")]
        for formula in CHECK_FORMULAS:
            text = formula.format(a=m.labels[0])
            out.append(["check", path.name, text])
            out.append(["check", path.name, text, "--state", m.states[0]])
        if not m.sigma.is_powerset:
            out += [["distinguish", path.name, s, t] for s in m.states for t in m.states if s != t]
    out.append(["check", "atom_split_invalid.nlmp", "T &"])
    return out


def run_case(argv: list[str]) -> dict:
    """Exit code and report of one command run in the corpus directory."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(corpus_dir())
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        os.chdir(cwd)
    report = json.loads(out.getvalue())
    del report["timing_ms"]
    return {"exit": code, "report": report}


def _key(argv: list[str]) -> str:
    return " ".join(argv)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_key(argv) for argv in cases())


@pytest.mark.parametrize("argv", cases(), ids=_key)
def test_report_matches_golden(golden, argv):
    assert run_case(argv) == golden[_key(argv)]


if __name__ == "__main__":
    recorded = {_key(argv): run_case(argv) for argv in cases()}
    GOLDEN.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(recorded)} reports to {GOLDEN}", file=sys.stderr)
