"""The README's examples, run as written: the command-line block, the Python
API block and the config block; and the limits, exit codes and public names
it states, checked against the code."""

import json
import re
import shlex
from dataclasses import fields
from pathlib import Path

import click
from click.testing import CliRunner

import opampfit
from opampfit import RunConfig
from opampfit.cli import EXIT_NUMERIC, EXIT_PARSE, MAX_TRIALS, main
from opampfit.simulate import MAX_DRIVE_SAMPLES, MAX_SWEEP_POINTS

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


def test_every_exported_name_exists():
    assert [name for name in opampfit.__all__ if not hasattr(opampfit, name)] == []


def test_named_api_is_exported():
    section = README.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    (block,) = fenced_blocks("python", section)
    (imported,) = re.findall(r"^from opampfit import \((.*?)\)", block, flags=re.M | re.S)
    (pieces,) = re.findall(r"^Lower-level pieces:(.*?)\.\s", section, flags=re.M | re.S)
    named = re.findall(r"\w+", imported) + re.findall(r"`(\w+)`", pieces)
    assert len(named) > 10
    assert sorted(set(named) - set(opampfit.__all__)) == []


def test_stated_config_commands_are_the_commands_with_the_option():
    (stated,) = re.findall(r"^(.*) accepts? `--config run\.json`", README, flags=re.M)
    having = {name for name, command in main.commands.items()
              if any("--config" in param.opts for param in command.params)}
    assert set(re.findall(r"`(\w+)`", stated)) == having


def test_config_block_names_every_field():
    (block,) = fenced_blocks("json")
    data = json.loads(block)
    RunConfig.from_mapping(data)
    assert set(data) == {f.name for f in fields(RunConfig) if f.init}


def stated_power_of_two(pattern):
    """The number ``2^k`` that the README states where ``pattern``, which
    captures ``k``, matches; it must match exactly once."""
    (exponent,) = re.findall(pattern, README)
    return 2 ** int(exponent)


def test_stated_sweep_point_cap_is_the_code_cap():
    assert stated_power_of_two(r"A sweep plan holds at most 2\^(\d+) points") == MAX_SWEEP_POINTS


def test_stated_drive_sample_cap_is_the_code_cap():
    assert stated_power_of_two(
        r"One sweep point may take at most 2\^(\d+) drive samples") == MAX_DRIVE_SAMPLES


def test_stated_trial_cap_is_the_code_cap():
    assert stated_power_of_two(r"`mc` takes at most 2\^(\d+) trials") == MAX_TRIALS


def test_stated_exit_codes_are_the_code_exit_codes():
    listed = {int(code) for code in re.findall(r"^- exit (\d):", README, flags=re.M)}
    assert listed == {2, 3, 4}
    assert {click.UsageError.exit_code, EXIT_PARSE, EXIT_NUMERIC} == listed
