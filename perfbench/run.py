"""nlmp benchmark: CLI time-to-verdict on the `refine`, `synth` and
`ingest` workloads.

    python3 perfbench/run.py --workload refine --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the library is imported from its
`src/`.  Each workload runs in fresh interpreters (`workload.py`): a few
set-up-only runs and one measured run, whose set-up times give the
median `setup_s`.  The last line of standard output is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
metrics with `--trace 0`, the per-layer metrics of a traced pass with
`--trace 1`.  See DESIGN.md for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only processes before and after the measured one, so that the
# median of the set-up times spans the run rather than one slow spell.
SETUP_RUNS_EACH_SIDE = 3
CHILD_TIMEOUT_S = 170

# Metric names and units, as BENCHMARK.json at the checkout root lists them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def child(args, work: Path, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(HERE / ".work" / f"spans-{args.workload}-{args.seed}.tsv")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], stdout=subprocess.PIPE, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"{args.workload}: workload process timed out")
    if proc.returncode != 0:
        raise SystemExit(f"{args.workload}: workload process exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "nlmp" / "__init__.py").is_file():
        print(f"no nlmp sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        setups = [child(args, work / f"setup{k}", True)["setup_s"] for k in range(SETUP_RUNS_EACH_SIDE)]
        rep = child(args, work / "run", False)
        setups += [child(args, work / f"setup{k}", True)["setup_s"] for k in range(SETUP_RUNS_EACH_SIDE)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(rep["setup_s"])

    lat = rep["latencies"]
    for line in rep["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(rep["failures"])
    if args.trace:
        layers = rep["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER.items() if name in layers}
    else:
        values = {
            "latency_p50_ms": statistics.median(lat) * 1000,
            "latency_p90_ms": statistics.quantiles(lat, n=10)[8] * 1000,
            "commands_per_s": len(lat) / sum(lat),
            "confirmed_ratio": (rep["attempted"] - failed) / rep["attempted"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(
        f"{args.workload} seed {args.seed}: {rep['attempted']} commands issued, "
        f"{rep['commands']} per pass, {failed} failed",
        file=sys.stderr,
    )
    print(json.dumps({"correct": failed == 0, "attempted": rep["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
