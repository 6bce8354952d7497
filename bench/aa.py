"""A/A check: is the ruler steady enough to measure with?

Runs every workload ``--runs`` times (another ``--seed`` each time), twice
over, on the same checkout, and prints for every (end-to-end metric,
workload) pair:

* the **spread** of each set — the distance between the first and third
  quartile of its values (``statistics.quantiles(values, n=4)``) as a share
  of their median — which must stay within the metric's bound (``setup_s``
  is exempt: it gets the widest bound instead);
* the **shift** — by how much the second set's median is *worse* than the
  first's, as a share of the first — which must stay within the bound too.

Exit code 1 on any breach, so a change to the harness or a noisy box shows
before a comparison is attempted.  About 25 minutes at the default sizes.

    python3 bench/aa.py [--runs 10] [--workload NAME]... [--seconds S]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import run as bench_run


def one_set(workloads: list[str], seeds: list[int], seconds: float
            ) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for workload in workloads:
        per_metric = values.setdefault(workload, {})
        for seed in seeds:
            done = subprocess.run(
                [sys.executable, os.path.join(bench_run.BENCH_DIR, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True)
            if done.returncode != 0:
                raise SystemExit(f"aa: {workload} seed {seed} exited "
                                 f"{done.returncode}")
            result = json.loads(done.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"aa: {workload} seed {seed}: "
                                 f"{result['failed']} wrong answers")
            for name, metric in result["metrics"].items():
                per_metric.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = bench_run.load_spec()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or float(spec["run_seconds"])
    seeds = [bench_run.SEEDS[0] + 101 * index for index in range(args.runs)]
    sets = [one_set(workloads, seeds, seconds) for _ in range(2)]

    breaches = 0
    print(f"{'workload':14s} {'metric':22s} {'median 1':>12s} {'spread':>7s} "
          f"{'median 2':>12s} {'spread':>7s} {'shift':>7s} {'bound':>6s}")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            first, second = (s[workload][name] for s in sets)
            medians = [statistics.median(first), statistics.median(second)]
            spreads = [spread(first), spread(second)]
            shift = (medians[1] - medians[0]) / medians[0]
            if metric["better"] == "higher":
                shift = -shift
            verdict = ""
            if name != "setup_s" and max(spreads) > bound:
                verdict = " SPREAD"
            if shift > bound:
                verdict += " SHIFT"
            breaches += bool(verdict)
            print(f"{workload:14s} {name:22s} {medians[0]:12.4f} "
                  f"{100 * spreads[0]:6.2f}% {medians[1]:12.4f} "
                  f"{100 * spreads[1]:6.2f}% {100 * shift:+6.2f}% "
                  f"{100 * bound:5.1f}%{verdict}")
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
