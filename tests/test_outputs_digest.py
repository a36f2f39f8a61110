import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "outputs_digest.py"


def test_outputs_digest_is_deterministic():
    args = [sys.executable, str(TOOL), "--workload", "real", "--seed", "1001",
            "--count", "20"]
    lines = [subprocess.run(args, capture_output=True, text=True, check=True,
                            timeout=120).stdout for _ in range(2)]
    assert lines[0] == lines[1]
    assert re.fullmatch(r"real seed=1001 count=20 breakdowns=0 "
                        r"sha256=[0-9a-f]{64}\n", lines[0])


def test_outputs_digest_adds_one_digest_per_key_of_a_dict_result():
    args = [sys.executable, str(TOOL), "--workload", "own-hull", "--seed",
            "1001", "--count", "2"]
    line = subprocess.run(args, capture_output=True, text=True, check=True,
                          timeout=120).stdout
    hexes = "=[0-9a-f]{64}"
    assert re.fullmatch(r"own-hull seed=1001 count=2 breakdowns=0 sha256"
                        + hexes + "".join(f" {key}{hexes}" for key in (
                            "zeros", "critical", "hull", "bound", "factor"))
                        + r"\n", line)
