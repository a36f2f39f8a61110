"""The census of silent wrong answers, as a table per radius.

    python3 tools/census.py

Grades the DRAWS factored draws of each radius of tests/test_census.py
(its `grade`, `TABLE` and `DRAWS`), with the program imported from this
checkout's src, and prints one markdown row per radius: the right,
breakdown and silent-wrong counts, and the counts that `TABLE` pins.
Run it before and after a change that can move the zero sets, and
compare the rows.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from test_census import DRAWS, TABLE, grade  # noqa: E402

OUTCOMES = ("right", "breakdown", "silent wrong")


def census(r: float) -> tuple[int, int, int]:
    """(right, breakdown, silent wrong) over the draws of radius r."""
    counts = [grade(r, t) for t in range(DRAWS)]
    return tuple(counts.count(o) for o in OUTCOMES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.parse_args(argv)
    print("| r | right | breakdown | silent wrong | TABLE |")
    print("|---|---|---|---|---|")
    for r in sorted(TABLE):
        row = census(r)
        pinned = "/".join(map(str, TABLE[r]))
        print(f"| {r:g} | {' | '.join(map(str, row))} | {pinned} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
