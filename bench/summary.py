"""Collect sets of benchmark runs and compare two sets.

    python3 bench/summary.py collect A --runs 10          # runs every workload, seeds 1..10
    python3 bench/summary.py collect B --runs 10 --first-seed 11
    python3 bench/summary.py compare A B

``collect`` runs ``bench/run.py`` once per workload and seed, workloads
interleaved, and keeps each run's result line under ``bench/results/sets/``.
``compare`` prints, for each workload and end-to-end metric of
``BENCHMARK.json``, each set's median and quartiles, each set's spread (the
distance between the quartiles as a share of the median), and whether the
medians differ by less than the metric's bound; it also prints each set's
share of failed jobs.  A set given as a path is read from there.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = BENCH / "results" / "sets"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def set_dir(label: str) -> Path:
    path = Path(label)
    return path if path.is_dir() else SETS / label


def collect(label: str, runs: int, first_seed: int, workloads: list, seconds: int) -> None:
    out = set_dir(label)
    out.mkdir(parents=True, exist_ok=True)
    for seed in range(first_seed, first_seed + runs):
        for workload in workloads:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            line = proc.stdout.strip().splitlines()[-1]
            (out / f"{workload}.seed{seed}.json").write_text(line + "\n")
            print(f"{workload} seed {seed}: {line}", flush=True)


def load(label: str) -> dict:
    """workload -> list of run results."""
    runs: dict = {}
    for path in sorted(set_dir(label).glob("*.seed*.json")):
        runs.setdefault(path.name.split(".seed")[0], []).append(json.loads(path.read_text()))
    return runs


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(label_a: str, label_b: str) -> int:
    """Print both sets side by side; exit 1 when some medians differ by the bound or more."""
    bench = spec()
    runs_a, runs_b = load(label_a), load(label_b)
    all_within = True
    print(f"A = {label_a}, B = {label_b}; spread = (q3 - q1) / median")
    for workload in [w["name"] for w in bench["workloads"]]:
        a, b = runs_a.get(workload, []), runs_b.get(workload, [])
        print(f"\n{workload}: A {len(a)} runs, B {len(b)} runs")
        for label, results in (("A", a), ("B", b)):
            attempted = sum(r["attempted"] for r in results)
            failed = sum(r["failed"] for r in results)
            print(f"  {label} failed {failed} of {attempted} jobs")
        if not a or not b:
            all_within = False
            continue
        print(f"  {'metric':12s} {'A q1':>9s} {'A median':>9s} {'A q3':>9s} {'spread':>6s}"
              f" {'B q1':>9s} {'B median':>9s} {'B q3':>9s} {'spread':>6s} {'B/A-1':>7s} bound  within")
        for metric in bench["end_to_end"]:
            name = metric["name"]
            qa = quartiles([r["metrics"][name]["value"] for r in a])
            qb = quartiles([r["metrics"][name]["value"] for r in b])
            diff = qb[1] / qa[1] - 1
            within = abs(diff) < metric["bound"]
            all_within &= within
            print(f"  {name:12s} {qa[0]:9.4g} {qa[1]:9.4g} {qa[2]:9.4g} {(qa[2] - qa[0]) / qa[1]:6.3f}"
                  f" {qb[0]:9.4g} {qb[1]:9.4g} {qb[2]:9.4g} {(qb[2] - qb[0]) / qb[1]:6.3f}"
                  f" {diff:+7.3f} {metric['bound']:5}  {'yes' if within else 'NO'}")
    return 0 if all_within else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("collect")
    p.add_argument("label")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="*", default=None)
    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "collect":
        bench = spec()
        workloads = args.workloads or [w["name"] for w in bench["workloads"]]
        collect(args.label, args.runs, args.first_seed, workloads, bench["run_seconds"])
        return 0
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
