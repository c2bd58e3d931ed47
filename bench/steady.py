"""Steadiness check: run every workload k times and compare spreads with bounds.

    python3 bench/steady.py --runs 10                  # end-to-end, seeds 1..10
    python3 bench/steady.py --runs 3 --trace --seed 1  # counts must repeat

Rounds alternate the workload order (forward, then reversed), so slow drift
of the machine does not always land on the same workload.  Without
``--trace`` each round uses the next seed, and the tool reports for every
end-to-end metric the median, the quartiles and the spread (q3 - q1) / median
against the metric's bound in BENCHMARK.json.  With ``--trace`` every round
uses the same seed and the count metrics must repeat exactly.  Workloads and
run length always come from BENCHMARK.json.  The exit code is 0
only when every run was correct and every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 600

# Per-layer metrics that count work; they must not change between runs of one seed.
COUNT_UNITS = {"count", "bits", "bytes"}
EXACT_RATIOS = {"mechanism.wd_per_run", "audit.dominance.witness_rate"}


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    command = [
        sys.executable,
        str(BENCH_DIR / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "1" if trace else "0",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False
    )
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output\n{done.stderr}")
    result = json.loads(lines[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n{done.stdout}")
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="first seed (or the only one with --trace)")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values: dict[str, dict[str, list[float]]] = {name: {} for name in names}
    for round_no in range(args.runs):
        order = names if round_no % 2 == 0 else names[::-1]
        seed = args.seed if args.trace else args.seed + round_no
        for name in order:
            result = run_once(name, seed, seconds, args.trace)
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
            print(f"round {round_no} {name} seed {seed}: {result['attempted']} ops", flush=True)

    ok = True
    for name in names:
        print(f"\n{name}")
        for metric, series in values[name].items():
            if args.trace:
                unit = result["metrics"][metric]["unit"]
                if unit in COUNT_UNITS or metric in EXACT_RATIOS:
                    same = len(set(series)) == 1
                    ok &= same
                    verdict = "repeats" if same else f"DIFFERS {sorted(set(series))}"
                    print(f"  {metric:<36} {series[0]!s:<14} {verdict}")
                continue
            median, q1, q3, share = spread(series)
            bound = bounds[metric]
            if share <= bound / 3:
                verdict = f"within a third of bound {bound}"
            elif share <= bound:
                verdict = f"within bound {bound}, above a third of it"
            else:
                verdict = f"OVER bound {bound}"
                ok = False
            print(
                f"  {metric:<12} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}"
                f"  spread {share:.4f}  {verdict}"
            )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
