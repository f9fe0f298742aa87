"""Every JSON document in README.md must parse and validate, every
subcommand's usage line, in README.md and in `jsqa --help`, must list its
options, bracketing exactly the optional ones, and every constant listed
under Reproducibility must hold its value in `jsqa.simulator`, so the
documented inputs and contract cannot drift from the code."""

import ast

import json
import re
from pathlib import Path

import pytest

from jsqa import cli, simulator
from jsqa.cli import main, manifest_from_dict
from jsqa.model import config_from_dict, validate

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
USAGE = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL)
COMMANDS = dict(line.split(" ", 2)[1:] for line in USAGE.group(1).splitlines())
REPRODUCIBILITY = re.search(r"### Reproducibility\n(.*?)\n#", README.read_text(), flags=re.DOTALL)
# the `NAME = value` items of its list
CONTRACT = dict(re.findall(r"^- `([A-Z_]+) = ([^`]+)`", REPRODUCIBILITY.group(1), flags=re.MULTILINE))
# the usage lines of the cli module docstring, which `jsqa --help` prints
HELP_COMMANDS = dict(
    line.split(" ", 2)[1:] for line in map(str.strip, cli.__doc__.splitlines())
    if line.startswith("jsqa ")
)


def test_readme_has_a_config_and_a_manifest():
    kinds = {"manifest" if "regime" in json.loads(b) else "config" for b in BLOCKS}
    assert kinds == {"config", "manifest"}


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_json_block_parses(block):
    obj = json.loads(block)
    if "regime" in obj:
        manifest_from_dict(obj).check()
    else:
        report = validate(config_from_dict(obj))
        assert report.ok, report.violations


def _flags(usage: str) -> dict[str, bool]:
    """Each option of a usage line, mapped to whether it is bracketed."""
    return {flag: bool(bracket) for bracket, flag in re.findall(r"(\[?)(--[a-z][a-z-]*)", usage)}


def _parser_flags(command: str, capsys) -> dict[str, bool]:
    """The options of `jsqa <command>`, each mapped to whether argparse
    leaves it optional, read from the usage paragraph of its --help."""
    with pytest.raises(SystemExit):
        main([command, "--help"])
    return _flags(capsys.readouterr().out.split("\n\n")[0])


def test_readme_usage_names_every_command():
    assert set(COMMANDS) == set(HELP_COMMANDS) == {"run", "oracle-check", "domination"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_usage_lists_each_option(command, capsys):
    assert _flags(COMMANDS[command]) == _parser_flags(command, capsys)


@pytest.mark.parametrize("command", sorted(HELP_COMMANDS))
def test_help_usage_lists_each_option(command, capsys):
    assert _flags(HELP_COMMANDS[command]) == _parser_flags(command, capsys)


def test_readme_lists_the_block_sizes():
    assert {"BLOCK", "BLOCK_ROWS"} <= set(CONTRACT)


@pytest.mark.parametrize("name", sorted(CONTRACT))
def test_readme_contract_constant_matches_simulator(name):
    assert ast.literal_eval(CONTRACT[name]) == getattr(simulator, name)
