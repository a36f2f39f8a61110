import subprocess
import sys
from pathlib import Path

from test_census import DRAWS, TABLE, grade

TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"


def test_census_tool_prints_the_census_per_radius():
    out = subprocess.run([sys.executable, str(TOOL)], capture_output=True,
                         text=True, check=True, timeout=120).stdout
    header, rule, *rows = out.splitlines()
    assert header == "| r | right | breakdown | silent wrong | TABLE |"
    assert rule == "|---|---|---|---|---|"
    assert len(rows) == len(TABLE)
    for r, row in zip(sorted(TABLE), rows):
        counts = [grade(r, t) for t in range(DRAWS)]
        want = [f"{r:g}", *(str(counts.count(o)) for o in
                            ("right", "breakdown", "silent wrong")),
                "/".join(map(str, TABLE[r]))]
        assert [c.strip() for c in row.strip("|").split("|")] == want
