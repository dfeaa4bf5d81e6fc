"""The README's command-line examples and example config against the CLI:
a deleted or renamed flag or setting fails here until the docs follow.
Nothing is run."""

import json
import re
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from tripod_holonomy.cli import _SETTINGS, RunConfig, build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()
# (language, body) of each fenced code block
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)


def command_lines() -> list[list[str]]:
    """The arguments of every `tripod-holonomy ...` line in the README's
    code blocks, with backslash continuations joined."""
    return [shlex.split(line, comments=True)[1:]
            for _, body in BLOCKS for line in body.replace("\\\n", " ").splitlines()
            if line.startswith("tripod-holonomy ")]


def test_the_readme_shows_every_command():
    assert {argv[0] for argv in command_lines()} == set(_SETTINGS)


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_readme_command_line_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(capsys.readouterr().err)


def test_readme_example_config_holds_only_what_noisy_sweep_reads():
    (body,) = re.findall(r"Example config file for `noisy-sweep`:\s*```json\n(.*?)^```",
                         README, re.M | re.S)
    doc = json.loads(body)
    assert set(doc) <= set(_SETTINGS["noisy-sweep"])
    for key in ("grid", "lambda_sq"):
        doc[key] = tuple(doc[key])
    replace(RunConfig(), **doc).validate()
