"""Run the benchmark over several seeds and report each metric across runs.

    python3 perfbench/spread.py --workload steady --seeds 1-10

Each run is ``run.py --trace 0`` with ``--seconds`` set to ``run_seconds``
of BENCHMARK.json. For every end-to-end metric, and for the report's tracking
figures that BENCHMARK.json leaves out (``recover_ms.p50``,
``track_err_px``, ``fail_frac``), it prints the median over the runs, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the metric's bound in
BENCHMARK.json. Runs go one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, list[float]] = {}
    ok = True
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= res["correct"]
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        report = json.loads((HERE / "out" / f"{args.workload}-seed{seed}-trace0.json").read_text())
        for name, m in {**report["tracking"], **res["metrics"]}.items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, xs in sorted(values.items()):
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else (xs[0],) * 3
        share = (q3 - q1) / abs(med) if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or share <= bound / 3 else "  > bound/3"
        print(f"{name:40s} {len(xs):3d} {med:12.5g} {q1:12.5g} {q3:12.5g} {share:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
