"""The README's CLI examples, run with --format json, against golden
output in tests/data/readme_examples.json: numbers agree to 1e-12,
everything else (keys, strings, list lengths, exit codes) exactly.

Each golden entry holds the argv, the exit code and the parsed JSON. A
deliberate change of the output is recorded by running the argv lists
through qlucas.cli.main and writing the results back to that file.
"""

import json
from pathlib import Path

import pytest

from qlucas.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" /
                     "readme_examples.json").read_text())


def assert_matches(got, want, path="$"):
    if type(want) in (int, float):
        assert type(got) in (int, float), path
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12), path
        return
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            assert_matches(got[k], want[k], f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


@pytest.mark.parametrize("case", GOLDEN, ids=[
    f"{i}-{c['argv'][0]}" for i, c in enumerate(GOLDEN)])
def test_readme_example_json_is_unchanged(case, capsys):
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert_matches(json.loads(out), case["output"])
