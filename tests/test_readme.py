"""The README's examples, run as written: each ```python block as a
doctest, and each ``$ riordan ...`` transcript through ``cli.main`` in
process, its stdout compared exactly (only the last line after
``| tail -1``)."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from riordan.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
FENCED = re.compile(r"^```(\w*)\n(.*?)^```$", re.M | re.S)
BLOCKS = FENCED.findall(README)
PYTHON = [body for lang, body in BLOCKS if lang == "python"]


def _transcripts():
    """(command, expected stdout lines) for every ``$ riordan`` prompt."""
    out = []
    for lang, body in BLOCKS:
        if lang != "text":
            continue
        for chunk in body.strip("\n").split("\n\n"):
            command, *lines = chunk.split("\n")
            if command.startswith("$ riordan "):
                out.append((command[len("$ riordan "):], lines))
    return out


TRANSCRIPTS = _transcripts()


def test_examples_found():
    assert len(PYTHON) == 5
    assert sum(len(doctest.DocTestParser().get_examples(b)) for b in PYTHON) == 14
    assert len(TRANSCRIPTS) == 7


@pytest.mark.parametrize("body", PYTHON, ids=[f"block{i}" for i in range(len(PYTHON))])
def test_python_block(body):
    test = doctest.DocTestParser().get_doctest(body, {}, "README.md", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert runner.failures == 0


@pytest.mark.parametrize("command, expected", TRANSCRIPTS, ids=[c for c, _ in TRANSCRIPTS])
def test_transcript(command, expected, capsys):
    command, _, pipe = command.partition(" | ")
    assert main(shlex.split(command)) == 0
    lines = capsys.readouterr().out.splitlines()
    if pipe:
        assert pipe == "tail -1"
        lines = lines[-1:]
    assert lines == expected
