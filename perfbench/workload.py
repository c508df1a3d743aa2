"""One workload in a fresh interpreter: generate inputs, warm up, run
the timed closed loop, then check every verdict outside the timed part.

A single client issues `nlmp` CLI commands one at a time by calling
`nlmp.cli.main(argv)` in-process with stdout and stderr captured.  The
command list of a workload is a fixed stratified mix: the seed draws
the structure of every model and the state pairs, never the sizes, so
that the latency distribution of one seed is close to that of another.
The loop runs whole passes over the list, at least three, until
`--seconds` have passed, so every pass has the same mix.

Run through `run.py`; this file prints one JSON line for it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import gen  # noqa: E402

CORPUS = ROOT / "src" / "nlmp" / "corpus"

# Known bisimulations of the bundled models (classes of a relation that
# the model's comments establish); singletons where nothing is claimed.
CORPUS_PLANTED = {
    "coarse_valid": [["s", "t"], ["x"]],
    "lmp_example": [["g1", "g2", "stop"]],
    "np_reach_equal": [["s", "t"], ["u", "v"]],
    "uniform_rows": [["p", "q", "r"]],
}

# Formulas for `check`, modal depth 2 to 4, over labels a and b.
FORMULAS = (
    "<a>[<b>[T]>=1/2]>0",
    "<a>[ >1/3 <b>[T]>=1 , <2/3 T ]",
    "<b>(![<a>[T]>=1]>=1/2 \\/ [<b>[<a>[T]>0]>1/4]<1/2)",
    "<a>[<a>[<b>[T]>=1/3 & <a>[T]>0]>1/4]<=3/4",
    "<a>[ >1/4 <b>[<a>[<b>[T]>0]>=1/2]>0 , <1 T ]",
    "<b>[<a>[ >1/2 <b>[<a>[T]>=1/2]>=1/2 ]]>=1/3 & <a>[T]>0",
)


@dataclass
class Command:
    family: str
    argv: list[str]
    model: gen.Model
    check: str  # "refine" | "synth" | "validate" | "formula"
    args: tuple = ()


def read_corpus(path: Path) -> gen.Model:
    """The benchmark's own reader of a bundled model file."""
    kind, states, labels, gens, rows = "nlmp", [], [], None, {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        tokens = re.findall(r"\{|\}|[^\s{}]+", raw.split("#", 1)[0])
        if not tokens:
            continue
        head, rest = tokens[0], tokens[1:]
        if head in ("nlmp", "lmp"):
            kind = head
        elif head == "states":
            states = rest
        elif head == "labels":
            labels = rest
        elif head == "sigma" and rest[0] == "gen":
            gens = " ".join(rest[1:]).replace("{", " ").split("}")[:-1]
            gens = [g.split() for g in gens]
        elif head == "trans":
            s, a, body = rest[0], rest[1], rest[2:]
            if body[0] == "->":
                w = {body[1]: Fraction(1)}
            else:
                w = {x: Fraction(v) for x, v in (item.split(":") for item in body)}
            rows.setdefault((s, a), []).append(w)
    atoms = None
    if gens is not None:
        groups: dict[tuple, list[str]] = {}
        for s in states:
            groups.setdefault(tuple(s in g for g in gens), []).append(s)
        atoms = list(groups.values())
    name = path.stem
    planted = CORPUS_PLANTED.get(name, [[s] for s in states])
    return gen.Model(name, kind, states, labels, atoms, rows, planted, valid=name != "atom_split_invalid")


def _pairs(rng: random.Random, model: gen.Model, same: int, different: int) -> list[tuple[str, str]]:
    pairs = []
    big = [c for c in model.planted if len(c) > 1]
    for _ in range(same):
        s, t = rng.sample(rng.choice(big), 2)
        pairs.append((s, t))
    for _ in range(different):
        c1, c2 = rng.sample(model.planted, 2)
        pairs.append((rng.choice(c1), rng.choice(c2)))
    return pairs


def build(workload: str, seed: int) -> list[Command]:
    rng = random.Random(f"{workload}-{seed}")
    corpus = [read_corpus(p) for p in sorted(CORPUS.glob("*.nlmp"))]
    cmds: list[Command] = []

    def add(family: str, model: gen.Model, check: str, argv_tail: list[str], *args) -> None:
        cmds.append(Command(family, argv_tail, model, check, args))

    if workload == "refine":
        for m in corpus:
            add("corpus", m, "refine", ["bisim", m.name, "--kind", "all"], False)
        for n in (5, 6, 8, 10, 12, 14, 16) * 3:
            m = gen.chain(rng, f"chain{len(cmds)}", n, rng.choice((1, 2, 3)))
            add("chain", m, "refine", ["bisim", m.name, "--kind", "all"], True)
        for rungs in (3, 4, 5, 6, 7) * 3:
            m = gen.ladder(rng, f"ladder{len(cmds)}", rungs)
            add("ladder", m, "refine", ["bisim", m.name, "--kind", "all"], True)
        for q, c in ((3, 2), (2, 3), (4, 2), (3, 3), (5, 2), (4, 3), (6, 2), (3, 4)):
            for labels in (2, 3, 2, 3, 2):
                m = gen.planted(rng, f"lump{len(cmds)}", q, c, labels, coarse=False)
                add("planted", m, "refine", ["bisim", m.name, "--kind", "all"], False)
        for q in (3, 4, 5) * 6:
            m = gen.planted(rng, f"coarse{len(cmds)}", q, 4, rng.choice((2, 3)), coarse=True)
            add("coarse", m, "refine", ["bisim", m.name, "--kind", "all"], False)
    elif workload == "synth":
        # One command per model: a `distinguish` costs the same for every
        # pair of one model, so distinct models are what smooth the tail.
        for n in (8, 9, 10, 11, 12, 13) * 3:
            m = gen.chain(rng, f"chain{len(cmds)}", n, 2)
            s, t = rng.sample(m.states, 2)
            add("chain", m, "synth", ["distinguish", m.name, s, t], s, t)
        for i in range(63):
            q, c = ((2, 3), (3, 2), (2, 4), (4, 2), (3, 3), (5, 2), (2, 5))[i % 7]
            m = gen.planted(rng, f"lump{len(cmds)}", q, c, 2, coarse=False)
            s, t = _pairs(rng, m, i % 2, 1 - i % 2)[0]
            add("planted", m, "synth", ["distinguish", m.name, s, t], s, t)
        two = next(m for m in corpus if m.name == "two_bounds_needed")
        for s, t in (("s", "t"), ("x", "y"), ("y", "z")):
            add("corpus", two, "synth", ["distinguish", two.name, s, t], s, t)
        for q, c in ((3, 2), (4, 2), (3, 4), (5, 2), (2, 4), (4, 4)) * 3:
            m = gen.planted(rng, f"coarse{len(cmds)}", q, c, 2, coarse=True)
            s, t = _pairs(rng, m, 0, 1)[0]
            add("coarse", m, "synth", ["distinguish", m.name, s, t], s, t)
    elif workload == "ingest":
        # One command per model, alternating `validate` and `check`.
        sizes = [((8, 2), False), ((10, 2), False), ((6, 4), False), ((10, 4), True), ((12, 4), True)]
        for i in range(38):
            (q, c), coarse = sizes[i % len(sizes)]
            m = gen.planted(rng, f"model{len(cmds)}", q, c, 2, coarse)
            family = "coarse" if coarse else "planted"
            if i % 2 == 0:
                add(family, m, "validate", ["validate", m.name])
            else:
                formula, state = rng.choice(FORMULAS), rng.choice(m.states)
                add(family, m, "formula", ["check", m.name, formula, "--state", state], formula, state)
        for q in (4, 5, 6, 7, 8, 9, 10, 11) * 4:
            m = gen.atom_split(rng, f"split{len(cmds)}", q, 4)
            add("atom_split", m, "validate", ["validate", m.name])
        for n, coarse in ((8, False), (9, False), (10, True), (11, True), (12, True)) * 4 + ((10, False),) * 2:
            m = gen.lmp(rng, f"lmp{len(cmds)}", n, 2, coarse)
            add("lmp", m, "validate", ["validate", m.name])
        for m in corpus:
            add("corpus", m, "validate", ["validate", m.name])
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    rng.shuffle(cmds)
    return cmds


def materialize(cmds: list[Command], work: Path) -> None:
    """Write each generated model once and point argv at the file."""
    work.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}
    for c in cmds:
        m = c.model
        if m.name not in written:
            if c.family == "corpus":
                written[m.name] = CORPUS / f"{m.name}.nlmp"
            else:
                written[m.name] = work / f"{m.name}.nlmp"
                written[m.name].write_text(m.text(), encoding="utf-8")
        c.argv = [c.argv[0], str(written[m.name]), *c.argv[2:]]


WARMUP = {
    "refine": ["bisim", str(CORPUS / "uniform_rows.nlmp"), "--kind", "all"],
    "synth": ["distinguish", str(CORPUS / "np_reach_unequal.nlmp"), "s", "t"],
    "ingest": ["check", str(CORPUS / "coarse_valid.nlmp"), "<a>[T]>=1", "--state", "s"],
}

# Every workload issues at least 100 distinct commands per pass, so that
# ten samples lie beyond the 90th percentile, and a command's latency is
# the median of its passes.
MIN_SAMPLES = 100
MIN_PASSES = 3

# On a shared host the speed of a core drifts by up to 2x, in spells
# from seconds to minutes, whatever the program does.  Each timing is
# therefore scaled by the speed of the moment: just before it, a fixed
# pure-Python loop that calls no library code is timed (best of three),
# and a time t is reported as t * REFERENCE_LOOP_S / loop time, i.e. in
# seconds at the speed where the loop takes REFERENCE_LOOP_S (about its
# best time on the 2-core host that gave the numbers in DESIGN.md).
REFERENCE_LOOP_S = 0.0005


def _reference_loop() -> None:
    acc = Fraction(0)
    seen: dict[frozenset, int] = {}
    for i in range(1, 160):
        acc += Fraction(i % 7, i % 11 + 1)
        key = frozenset((i % 13, i % 17))
        seen[key] = seen.get(key, 0) + (acc > i)


def speed_scale() -> float:
    """REFERENCE_LOOP_S over the reference loop's time right now."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _reference_loop()
        best = min(best, time.perf_counter() - start)
    return REFERENCE_LOOP_S / best

_TIMING = re.compile(r'"timing_ms": [-0-9.e+]+')


def call(main, argv: list[str]) -> tuple[int | str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc: int | str = main(argv)
        except Exception as exc:  # a raised command is a failed command
            rc = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), elapsed


def run_pass(cli, cmds: list[Command], tracer=None) -> tuple[list[float], list[tuple]]:
    """Latencies scaled to the reference speed, and (exit code, report)."""
    latencies, results = [], []
    for c in cmds:
        scale = speed_scale()
        rc, out, elapsed = call(cli.main, c.argv)
        if tracer is not None:
            tracer.end_command()
        latencies.append(elapsed * scale)
        results.append((rc, _TIMING.sub("\"timing_ms\": 0", out)))
    return latencies, results


def verify(nlmp, cmds: list[Command], passes: list[list[tuple]]) -> list[str]:
    """One reason per failed command occurrence; the first pass is
    checked, later passes must print the same."""
    failures = []
    for i, c in enumerate(cmds):
        rc, out = passes[0][i]
        try:
            if isinstance(rc, str):
                reason = rc
            elif c.check == "refine":
                reason = checks.check_refine(nlmp, c.model, c.args[0], rc, out)
            elif c.check == "synth":
                reason = checks.check_synth(nlmp, c.model, *c.args, rc, out)
            elif c.check == "validate":
                reason = checks.check_validate(c.model, rc, out)
            else:
                reason = checks.check_formula(c.model, *c.args, rc, out)
        except Exception as exc:  # a check that cannot read the output rejects it
            reason = f"check raised {type(exc).__name__}: {exc}"
        for k, results in enumerate(passes):
            if reason is not None:
                failures.append(f"{' '.join(c.argv)}: {reason}")
            elif results[i] != passes[0][i]:
                failures.append(f"{' '.join(c.argv)}: pass {k} printed a different report")
    return failures


def layer_metrics(tracer) -> dict[str, float]:
    self_s, calls = tracer.self_times()
    out: dict[str, float] = {}
    for name, seconds in self_s.items():
        out[f"{name}.self_ms"] = seconds * 1000
        out[f"{name}.calls"] = calls[name]
    for name, distinct in tracer.distinct.items():
        if calls[name]:
            out[f"{name}.distinct_ratio"] = distinct / calls[name]
    out["bisim.rounds"] = tracer.rounds
    out["logic.formulas_per_request"] = statistics.mean(tracer.formulas) if tracer.formulas else 0
    return out


def formula_metrics(cmds: list[Command], results: list[tuple]) -> dict[str, float]:
    """Size and modal depth of the formulas `distinguish` printed; 0
    on a workload that prints none."""
    sizes = [
        checks.size_and_depth(checks.parse_formula(json.loads(out)["result"]["formula"]))
        for c, (rc, out) in zip(cmds, results)
        if c.check == "synth" and rc == 0
    ]
    out: dict[str, float] = {}
    for i, key in enumerate(("logic.formula_size", "logic.formula_depth")):
        values = [sd[i] for sd in sizes] or [0]
        out[f"{key}.median"] = statistics.median(values)
        out[f"{key}.max"] = max(values)
    return out


def traced_pass(nlmp, cli, cmds: list[Command], spans: str | None = None) -> tuple[dict, list[tuple], list[float]]:
    """One pass with every layer wrapped: per-layer metrics, the
    results, and the scaled latencies."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install(nlmp)
    try:
        latencies, results = run_pass(cli, cmds, tracer)
    finally:
        tracer.uninstall()
    if spans:
        tracer.write(spans)
    layers = layer_metrics(tracer)
    layers.update(formula_metrics(cmds, results))
    return layers, results, latencies


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() at process spawn")
    ap.add_argument("--work", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args()

    import nlmp
    from nlmp import cli

    if Path(nlmp.__file__).resolve().parent != ROOT / "src" / "nlmp":
        raise SystemExit(f"imported nlmp from {nlmp.__file__}, not from this checkout")
    cmds = build(args.workload, args.seed)
    if len(cmds) < MIN_SAMPLES:
        raise SystemExit(f"{args.workload}: {len(cmds)} commands per pass, need {MIN_SAMPLES}")
    materialize(cmds, Path(args.work))
    call(cli.main, WARMUP[args.workload])
    setup_s = (time.monotonic() - args.t0) * statistics.median(speed_scale() for _ in range(5))
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    report: dict = {"setup_s": setup_s, "commands": len(cmds)}
    passes: list[list[tuple]] = []
    pass_latencies: list[list[float]] = []
    started = time.perf_counter()
    while True:
        lat, results = run_pass(cli, cmds)
        pass_latencies.append(lat)
        passes.append(results)
        if len(passes) >= MIN_PASSES and time.perf_counter() - started >= args.seconds:
            break
    latencies = [statistics.median(per_command) for per_command in zip(*pass_latencies)]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["latencies"] = latencies
    if args.trace:
        layers, results, traced_latencies = traced_pass(nlmp, cli, cmds, args.spans)
        passes.append(results)
        layers["trace.overhead_ratio"] = sum(latencies) / sum(traced_latencies)
        report["layers"] = layers
    failures = verify(nlmp, cmds, passes)
    report["attempted"] = len(cmds) * len(passes)
    report["failures"] = failures
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
