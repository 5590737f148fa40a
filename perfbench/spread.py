"""Run one workload once per seed 1-10 and report how far each metric spreads.

    python3 perfbench/spread.py --workload stream-online

For each metric it prints the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``. All results go to
``perfbench/out/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = []
    for seed in SEEDS:
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        shares = result["failed"] / result["attempted"]
        print(
            f"seed {seed}: correct={result['correct']} failed share={shares:.6f} "
            f"took {elapsed:.1f} s",
            flush=True,
        )

    print(f"{'metric':34} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:34} {med:12.4f} {spread:11.4f} {bounds[name]:>6}")
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{args.workload}.json").write_text(json.dumps(results, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
