"""The benchmark's one command.

Run one workload once and print its result as the last line of stdout::

    python3 perfbench/run.py --workload batch_shallow --seed 1 \\
        --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric (see README.md).  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Steadiness mode runs a workload N times, each in a fresh process with
its own seed, and prints each end-to-end metric's median, quartiles and
spread (inter-quartile distance over the median) against its bound in
BENCHMARK.json::

    python3 perfbench/run.py --workload batch_deep --steady 10
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse(argv: list[str], workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, default=0, metavar="N",
                   help="run the workload N times (seeds SEED..SEED+N-1) "
                        "and report each metric's spread")
    return p.parse_args(argv)


def run_once(args: argparse.Namespace) -> int:
    from workloads import WORKLOADS, Run
    result = Run(WORKLOADS[args.workload], args.seed, args.seconds,
                 bool(args.trace), ROOT).execute()
    print(json.dumps(result))
    return 0


def steady(args: argparse.Namespace) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in range(args.seed, args.seed + args.steady):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            print(f"seed {seed}: exit code {out.returncode}",
                  file=sys.stderr)
            return 1
        runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()),
            flush=True)
    summary = {"workload": args.workload, "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "failed_shares": sorted({r["failed"] / r["attempted"]
                                        for r in runs}),
               "metrics": {}}
    print(f"{'metric':<18} {'q1':>12} {'median':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary["metrics"][name] = {"q1": q1, "median": median, "q3": q3,
                                    "spread": spread, "bound": bound}
        print(f"{name:<18} {q1:>12.6g} {median:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound:>6.3f}")
    print(json.dumps(summary))
    return 0


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              f"missing", file=sys.stderr)
        return 2
    # no more compute threads than this process may use; set before
    # numpy is first imported
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    args = parse(argv, sorted(WORKLOADS))
    return steady(args) if args.steady else run_once(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
