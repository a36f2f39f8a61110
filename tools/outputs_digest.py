"""One line that pins the outputs of a benchmark workload.

    python3 tools/outputs_digest.py --workload real --seed 1001 --count 4000

Runs the benchmark's operation for the workload (benchmark/run.py
OPERATIONS) on the first COUNT inputs of benchmark/workloads.generate,
with the program imported from this checkout's src, and prints the count,
the number of breakdowns and the SHA-256 of the repr of every result, or
of (type, message, info) for a breakdown. Two trees that print the same
line gave the same outputs, bit for bit, on those inputs.
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


def digest(workload: str, seed: int, count: int) -> tuple[int, str]:
    """(breakdowns, hex SHA-256) over the outcomes of the inputs."""
    ql = run.load_program()
    operation = run.OPERATIONS[workload]
    sha = hashlib.sha256()
    breakdowns = 0
    for coeffs in workloads.generate(workload, seed, count):
        try:
            out = repr(operation(ql, coeffs))
        except (ql.NumericalBreakdown, ValueError) as ex:
            breakdowns += 1
            out = repr((type(ex).__name__, str(ex), getattr(ex, "info", None)))
        sha.update(out.encode())
        sha.update(b"\n")
    return breakdowns, sha.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args(argv)
    breakdowns, hexdigest = digest(args.workload, args.seed, args.count)
    print(f"{args.workload} seed={args.seed} count={args.count} "
          f"breakdowns={breakdowns} sha256={hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
