"""Every JSON document in README.md must parse and validate, so the
documented input formats cannot drift from the parsers."""

import json
import re
from pathlib import Path

import pytest

from jsqa.cli import manifest_from_dict
from jsqa.model import config_from_dict, validate

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"```json\n(.*?)```", README.read_text(), flags=re.DOTALL)


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
