"""The README's examples, run as written: the command-line block, the Python
API block and the config block."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

from click.testing import CliRunner

from opampfit import RunConfig
from opampfit.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language, text=README):
    """Bodies of the ```language fenced blocks of ``text``, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", text, flags=re.M | re.S)


def test_command_line_block_runs_in_order(tmp_path, monkeypatch):
    section = README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    (block,) = fenced_blocks("sh", section)
    commands = [shlex.split(line) for line in block.splitlines()
                if line.startswith("opampfit ")]
    assert {argv[1] for argv in commands} == {"synth", "fit", "quick", "batch", "mc"}
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    for argv in commands:
        result = runner.invoke(main, argv[1:])
        assert result.exit_code == 0, (argv, result.output)


def test_python_api_block_runs():
    (block,) = fenced_blocks("python")
    exec(compile(block, "README.md", "exec"), {})


def test_config_block_names_every_field():
    (block,) = fenced_blocks("json")
    data = json.loads(block)
    RunConfig.from_mapping(data)
    assert set(data) == {f.name for f in fields(RunConfig)}
