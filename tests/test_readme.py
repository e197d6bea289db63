"""Every `respgames` command in README's shell blocks exits 0, and each
`# -> key value` note after it is that field of its JSON result."""

import json
import re
import shlex
from pathlib import Path

import pytest

from respgames.cli import main

ROOT = Path(__file__).resolve().parents[1]


def _examples() -> list[tuple[list[str], dict]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    examples: list[tuple[list[str], dict]] = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["respgames"]:
                examples.append((argv[1:], {}))
            note = re.search(r"# -> (\w+) (.+)$", line)
            if note:
                examples[-1][1][note[1]] = json.loads(note[2])
    return examples


EXAMPLES = _examples()


def test_every_subcommand_has_an_example():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "check", "degree", "ne", "simulate", "eval"}


@pytest.mark.parametrize("argv, notes", EXAMPLES,
                         ids=[argv[0] for argv, _ in EXAMPLES])
def test_readme_example(argv, notes, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(argv + ["--output", "json"])
    result = json.loads(capsys.readouterr().out)["result"]
    assert code == 0, result
    for key, value in notes.items():
        assert result[key] == value
