"""The README against the program.

The README's CLI examples, run with --format json, against golden
output in tests/data/readme_examples.json: numbers agree to 1e-12,
everything else (keys, strings, list lengths, exit codes) exactly.

Each golden entry holds the argv, the exit code and the parsed JSON. A
deliberate change of the output is recorded by running the argv lists
through qlucas.cli.main and writing the results back to that file.

The "Library sketch" block runs as written, and the "CLI" section names
every option of every subcommand, and no option or environment variable
that the CLI does not read.
"""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from qlucas import cli
from qlucas.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "data" /
                     "readme_examples.json").read_text())


def readme_section(title: str) -> str:
    """The README text from the heading "## title" to the next one."""
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    end = text.find("\n## ", start + 1)
    return text[start:end if end >= 0 else len(text)]


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


def test_library_sketch_runs_as_its_comments_say():
    block = re.search(r"```python\n(.*?)```", readme_section("Library sketch"),
                      re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, namespace)
    zs = namespace["zs"]
    # one isolated zero, mult 2
    assert [z.multiplicity for z in zs.isolated] == [2]
    assert not zs.spheres
    assert out.getvalue() == "True verified\n"


def test_readme_cli_section_and_parser_name_the_same_flags():
    section = readme_section("CLI")
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if a.choices and not a.option_strings)
    options = {opt for sub in subparsers.choices.values()
               for action in sub._actions for opt in action.option_strings}
    options -= {"-h", "--help"}
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    assert sorted(options - named) == []    # an option the README omits
    assert sorted(named - options) == []    # a flag no subcommand accepts
    source = Path(cli.__file__).read_text()
    read = set(re.findall(
        r"(?:environ\.get\(|environ\[|getenv\()\s*[\"']([A-Z][A-Z0-9_]*)",
        source))
    env_names = set(re.findall(r"\b[A-Z][A-Z0-9]*_[A-Z0-9_]+\b", section))
    assert sorted(env_names - read) == []   # a variable the CLI ignores
