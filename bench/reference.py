"""Reference figures: run the benchmark over several seeds and summarise.

Usage (from the repository root):

    python3 bench/reference.py --seeds 1-10

Runs ``bench/run.py`` once per workload and seed, one run at a time, with the
run length from BENCHMARK.json, keeps every run's JSON result line in
``.bench_results/reference-<time>.json`` and prints, per workload and
metric, the median and quartiles of the ten values as
``statistics.quantiles(values, n=4)`` gives them, plus the spread
(third minus first quartile) as a share of the median. These are the
tables in bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    args = parser.parse_args()

    stamp = time.strftime("%Y%m%d-%H%M%S")
    out = ROOT / ".bench_results" / f"reference-{stamp}.json"
    out.parent.mkdir(exist_ok=True)
    results: dict[str, list[dict]] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["wall_s"] = time.perf_counter() - started
            results.setdefault(workload, []).append(result)
            out.write_text(json.dumps(results, indent=1))

    print(f"results: {out}")
    for workload, runs in results.items():
        print(f"\n{workload}: {len(runs)} runs, correct {sorted({r['correct'] for r in runs})}, "
              f"failed/attempted {sorted({(r['failed'], r['attempted']) for r in runs})}, "
              f"wall {min(r['wall_s'] for r in runs):.0f}-{max(r['wall_s'] for r in runs):.0f} s")
        print("| metric | unit | Q1 | median | Q3 | (Q3-Q1)/median |")
        print("|---|---|---|---|---|---|")
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"| {name} | {first['unit']} | {q1:.5g} | {med:.5g} | {q3:.5g} | {spread:.3f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
