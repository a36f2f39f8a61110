"""One line that pins the outputs of a benchmark workload.

    python3 tools/outputs_digest.py --workload real --seed 1001 --count 4000

Runs the benchmark's operation for the workload (benchmark/run.py
OPERATIONS) on the first COUNT inputs of benchmark/workloads.generate,
with the program imported from this checkout's src, and prints the count,
the number of breakdowns and the SHA-256 of the repr of every result, or
of (type, message, info) for a breakdown. Two trees that print the same
line gave the same outputs, bit for bit, on those inputs.

When the results are dicts (own-hull), the line also holds one SHA-256
per key, key=hex, over the repr of that key's value in every result, so
a change that moves one stage shows which. A breakdown has no keys and
enters only the count and the whole digest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402


def digest(workload: str, seed: int, count: int) -> tuple[int, str, dict]:
    """(breakdowns, hex SHA-256, {key: hex SHA-256}) over the outcomes
    of the inputs; the dict is empty unless the results are dicts."""
    ql = run.load_program()
    operation = run.OPERATIONS[workload]
    sha = hashlib.sha256()
    keyed = {}
    breakdowns = 0
    for coeffs in workloads.generate(workload, seed, count):
        try:
            result = operation(ql, coeffs)
        except (ql.NumericalBreakdown, ValueError) as ex:
            breakdowns += 1
            out = repr((type(ex).__name__, str(ex), getattr(ex, "info", None)))
        else:
            out = repr(result)
            if isinstance(result, dict):
                for key, value in result.items():
                    keyed.setdefault(key, hashlib.sha256()).update(
                        repr(value).encode() + b"\n")
        sha.update(out.encode())
        sha.update(b"\n")
    return (breakdowns, sha.hexdigest(),
            {key: h.hexdigest() for key, h in keyed.items()})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    breakdowns, hexdigest, keyed = digest(args.workload, args.seed,
                                          args.count)
    per_key = "".join(f" {key}={h}" for key, h in keyed.items())
    print(f"{args.workload} seed={args.seed} count={args.count} "
          f"breakdowns={breakdowns} sha256={hexdigest}{per_key}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
