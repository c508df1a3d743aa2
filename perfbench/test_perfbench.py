"""Tests of the benchmark itself: seeded inputs, verdict checks, tracing.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run as bench  # noqa: E402
import workload  # noqa: E402

import nlmp  # noqa: E402  (workload puts the checkout's src/ first on the path)
from nlmp import cli  # noqa: E402

# Per-layer calls that must be nonzero on the workload each is paired with.
PAIRED = {
    "refine": (
        "cli.main", "model.nlmp_validate", "model.hit_preimage", "measurable.sigma_of_relation",
        "measurable.Relation.from_partition", "measurable.sigma_generate", "measures.profile",
        "measures.trace_classes", "bisim.largest_traditional", "bisim.largest_state",
        "bisim.smallest_stable_sigma",
    ),
    "synth": ("measures.Measure.value", "logic.logical_equivalence", "logic.satisfies", "logic.eval_state"),
    "ingest": (
        "parser.parse_model", "parser.parse_state_formula", "model.nlmp_validate", "model.hit_preimage",
        "model.lmp_validate", "measures.Measure.value", "logic.eval_state",
    ),
}


def sample(name: str, work: Path) -> list[workload.Command]:
    """One command of each family and check kind of a workload."""
    seen: dict[tuple[str, str], workload.Command] = {}
    for c in workload.build(name, 3):
        seen.setdefault((c.family, c.check), c)
    cmds = list(seen.values())
    workload.materialize(cmds, work)
    return cmds


def run_one(c: workload.Command) -> tuple[int, str]:
    rc, out, _ = workload.call(cli.main, c.argv)
    return rc, out


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in bench.WORKLOADS:
        first, again = workload.build(name, 7), workload.build(name, 7)
        workload.materialize(first, tmp_path / "first")
        workload.materialize(again, tmp_path / "again")
        assert len(first) >= workload.MIN_SAMPLES
        assert [Path(c.argv[1]).name for c in first] == [Path(c.argv[1]).name for c in again]
        assert [c.argv[2:] for c in first] == [c.argv[2:] for c in again]
        for c, d in zip(first, again):
            assert Path(c.argv[1]).read_bytes() == Path(d.argv[1]).read_bytes()
        other = workload.build(name, 8)
        assert [c.model.text() for c in first] != [c.model.text() for c in other]


def test_checks_confirm_every_family_at_this_commit(tmp_path):
    for name in bench.WORKLOADS:
        cmds = sample(name, tmp_path / name)
        _, results = workload.run_pass(cli, cmds)
        assert workload.verify(nlmp, cmds, [results]) == []


def test_checks_reject_wrong_verdicts(tmp_path):
    refine = {c.family: c for c in sample("refine", tmp_path / "refine")}
    c = refine["chain"]
    rc, out = run_one(c)
    report = json.loads(out)
    blocks = report["result"]["traditional"]["partition"]
    report["result"]["traditional"]["partition"] = [blocks[0] + blocks[1], *blocks[2:]]
    assert checks.check_refine(nlmp, c.model, True, rc, json.dumps(report)) is not None

    synth = {c.family: c for c in sample("synth", tmp_path / "synth")}
    c = synth["chain"]
    rc, out = run_one(c)
    report = json.loads(out)
    report["result"]["formula"] = "T"
    assert checks.check_synth(nlmp, c.model, *c.args, rc, json.dumps(report)) is not None
    assert checks.check_synth(nlmp, c.model, *c.args, 5, out) is not None

    ingest = {(c.family, c.check): c for c in sample("ingest", tmp_path / "ingest")}
    c = ingest[("atom_split", "validate")]
    rc, out = run_one(c)
    assert rc == 2 and checks.check_validate(c.model, 0, out) is not None
    c = ingest[("planted", "formula")]
    rc, out = run_one(c)
    report = json.loads(out)
    report["result"]["states"] = report["result"]["states"][1:] or c.model.states[:1]
    assert checks.check_formula(c.model, *c.args, rc, json.dumps(report)) is not None


def test_reference_parser_reads_the_workload_formulas():
    for text in workload.FORMULAS:
        phi = checks.parse_formula(text)
        assert 2 <= checks.size_and_depth(phi)[1] <= 4
        assert checks.parse_formula(nlmp.formula_to_text(nlmp.parse_state_formula(text))) == phi


def test_traced_layers_are_called_on_their_paired_workload(tmp_path):
    original = nlmp.measures.profile
    for name, layers_needed in PAIRED.items():
        layers, _, _ = workload.traced_pass(nlmp, cli, sample(name, tmp_path / name))
        for layer in layers_needed:
            assert layers[f"{layer}.calls"] >= 1, (name, layer)
        assert set(bench.PER_LAYER) - {"trace.overhead_ratio"} <= set(layers), name
        if name == "refine":
            assert layers["bisim.rounds"] >= 1
        if name == "synth":
            assert layers["logic.formulas_per_request"] >= 1
            assert layers["logic.formula_size.max"] >= 1
    assert nlmp.measures.profile is original and nlmp.bisim.profile is original
