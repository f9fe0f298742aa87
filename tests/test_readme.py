"""Every JSON document in README.md must parse and validate, and every
subcommand's usage line must list its options, so the documented inputs
cannot drift from the parsers."""

import json
import re
from pathlib import Path

import pytest

from jsqa.cli import main, manifest_from_dict
from jsqa.model import config_from_dict, validate

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)
USAGE = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), flags=re.DOTALL)
COMMANDS = dict(line.split(" ", 2)[1:] for line in USAGE.group(1).splitlines())
FLAG = r"--[a-z][a-z-]*"


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


def test_readme_usage_names_every_command():
    assert set(COMMANDS) == {"run", "oracle-check", "domination"}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_readme_usage_lists_each_option(command, capsys):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    options = set(re.findall(FLAG, capsys.readouterr().out)) - {"--help"}
    assert set(re.findall(FLAG, COMMANDS[command])) == options
