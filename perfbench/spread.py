"""Run workloads on several seeds and report how far each metric spreads.

    python3 perfbench/spread.py --workload infer-wide --seeds 1-10 --seconds 20

For every end-to-end metric this prints the median of the runs, the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), and that spread as a share of the
metric's bound in ``BENCHMARK.json``.  Runs are sequential, one process at
a time, so they do not compete for cores.  The raw results are written to
``.bench_work/spread-<workload>.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True, help="repeat for several workloads")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and result["correct"]
            status |= not ok
            runs.append({"seed": seed, "exit": proc.returncode, **result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        (ROOT / ".bench_work" / f"spread-{workload}.json").write_text(json.dumps(runs, indent=2) + "\n")
        print(f"\n{workload}: {'metric':24s} {'median':>12s} {'spread':>8s} {'bound':>6s} {'share':>6s}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values) if len(values) > 1 else 0.0
            print(f"{workload}: {name:24s} {statistics.median(values):12.5g} {s:8.4f} {bound:6.3f} {s / bound:6.2f}")
        print(flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
