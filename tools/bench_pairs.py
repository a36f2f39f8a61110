"""Alternating benchmark pairs: a parent checkout against this one.

    python3 tools/bench_pairs.py --parent ../parent --workload own-hull \\
        --seed 1001 --pairs 10 --tag hull-loops

Runs the benchmark command of BENCHMARK.json (benchmark/run.py) for one
workload and seed in two checkouts, the parent given by path and this
one, PAIRS times each at BENCHMARK.json's run_seconds. The side that runs
first alternates from pair to pair, so a drift of the host's speed falls
on both sides alike. Each run's output is saved in this checkout's root
as BENCH_<tag>_<workload>_<seed>_<nn>_{parent,change}.json, nn counting
the pairs from 01.

Then, for each end-to-end metric of BENCHMARK.json, it prints each
side's median and quartiles over the pairs, the change of the median in
percent, and how many pairs the change wins, in the direction of the
metric's `better`. Nothing under benchmark/ is edited.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def bench_name(tag: str, workload: str, seed: int, pair: int,
               side: str) -> str:
    return f"BENCH_{tag}_{workload}_{seed}_{pair:02d}_{side}.json"


def run_once(checkout: Path, command: list, workload: str, seed: int,
             seconds: float) -> str:
    """The output of one benchmark run in checkout, whose last line holds
    the metrics."""
    proc = subprocess.run([*command, "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {checkout} exited with "
                         f"{proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def metrics_of(output: str) -> dict:
    """{metric: value} from the last line of a benchmark run's output."""
    last = json.loads(output.strip().splitlines()[-1])
    return {name: m["value"] for name, m in last["metrics"].items()}


def quartiles(values: list) -> tuple[float, float, float]:
    """(first quartile, median, third quartile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list, end_to_end: list) -> list[str]:
    """One line per end-to-end metric over pairs of ({metric: value} of
    the parent, of the change); a win is a change strictly better than
    its own pair's parent."""
    lines = []
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(parent, change))
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        rel = f"{100.0 * (cm - pm) / pm:+.1f}%" if pm else "n/a"
        lines.append(f"{name}: parent {pm:.6g} [{p1:.6g}-{p3:.6g}] "
                     f"change {cm:.6g} [{c1:.6g}-{c3:.6g}] {rel}, "
                     f"better ({spec['better']}) in {wins}/{len(pairs)} "
                     f"pairs, parent IQR {p3 - p1:.6g}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="checkout of the parent commit")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tag", required=True,
                        help="the <tag> of the BENCH_*.json file names")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for n in range(1, args.pairs + 1):
        got = {}
        for side in (SIDES if n % 2 else SIDES[::-1]):
            out = run_once(checkouts[side], config["command"], args.workload,
                           args.seed, config["run_seconds"])
            (ROOT / bench_name(args.tag, args.workload, args.seed, n,
                               side)).write_text(out)
            got[side] = metrics_of(out)
        pairs.append((got["parent"], got["change"]))
        print(f"pair {n:02d} done", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} pairs={args.pairs}")
    for line in summarize(pairs, config["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
