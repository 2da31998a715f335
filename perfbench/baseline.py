"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --runs 10 --first-seed 1 --label set-a \
        --out perfbench/baseline.json

Each run is a separate `run.py` process, one after another.  For every
workload and metric the summary keeps the ten values, their median and
the quartile spread (q3 - q1) / median, as `statistics.quantiles(n=4)`
gives them.  Summaries are added under `--label`, so two sets of runs of
the same commit can sit side by side.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).with_name("run.py")


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [med] * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--workload", action="append", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()

    summary = json.loads(args.out.read_text()) if args.out.exists() else {}
    entry = summary.setdefault(args.label, {})
    for workload in args.workload or list(workloads.GENERATORS):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(RUN), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"],
                capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: incorrect output\n"
                                 + proc.stdout)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        entry[workload] = {name: dict(summarise(v), unit=units[name])
                           for name, v in values.items()}
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
        for name, s in entry[workload].items():
            print(f"{workload:14s} {name:34s} median {s['median']:.4f} "
                  f"{s['unit']:6s} spread {s['spread']:.4f}", flush=True)


if __name__ == "__main__":
    main()
