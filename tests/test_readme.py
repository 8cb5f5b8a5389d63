"""The README's examples run as printed."""

import pathlib
import re
import shlex

from linestab import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out.strip()


def test_command_line_examples_parse():
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S)
    commands = [
        line
        for block in blocks
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("linestab ")
    ]
    assert commands, "README has no linestab command"
    parser = cli._build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])
