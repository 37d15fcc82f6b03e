"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/collect.py --workloads field-pcm24 many-short \\
        --seeds 1-10 --out perfbench/results/baseline.json

Runs ``run.py`` once per (workload, seed), one after another, and writes
each run's metrics, each metric's median and quartiles (Python's
``statistics.quantiles(n=4)``), the quartile distance as a share of the
median, and the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def caches() -> dict[str, str]:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    return {k.strip(): v.strip() for k, _, v in (line.partition(":") for line in text.splitlines())
            if k.strip() in ("Model name", "L1d cache", "L2 cache", "L3 cache")}


def printed_figures(lines: list[str]) -> dict[str, float]:
    """The "name value" lines run.py prints before its JSON result."""
    figures = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 2 and not line.startswith("#"):
            try:
                figures[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return figures


def summarize(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan")}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="JSON file for the results")
    args = parser.parse_args()

    report = {"machine": None, "seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            if report["machine"] is None:
                machine = next(json.loads(line[len("# machine "):]) for line in lines
                               if line.startswith("# machine "))
                report["machine"] = {**machine, "cpu": caches()}
            result.update(seed=seed, run_s=elapsed, printed=printed_figures(lines[:-1]))
            runs.append(result)
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        names = list(runs[0]["metrics"])
        summary = {n: summarize([r["metrics"][n]["value"] for r in runs]) for n in names}
        report["workloads"][workload] = {"summary": summary, "runs": runs}
        for n, s in summary.items():
            print(f"  {n:44s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
