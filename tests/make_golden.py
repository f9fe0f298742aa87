"""Regenerate the golden files of the tiny-input schema tests: one
results.csv per regime kind, and the stdout of one oracle-check.

Run from the repository root after an intentional output change:
    python3 -m tests.make_golden
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import jsqa.cli as cli
from tests.test_cli import DATA, GOLDEN, GOLDEN_ORACLE_CHECK, JSQ2


def main():
    DATA.mkdir(exist_ok=True)
    for name, manifest_obj in GOLDEN.values():
        with tempfile.TemporaryDirectory() as tmp:
            manifest = Path(tmp) / "manifest.json"
            manifest.write_text(json.dumps(manifest_obj))
            out = Path(tmp) / "out"
            status = cli.main(["run", str(manifest), "--out", str(out)])
            assert status == 0, status
            (DATA / name).write_bytes((out / "results.csv").read_bytes())
        print(f"wrote {DATA / name}")

    name, args = GOLDEN_ORACLE_CHECK
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(JSQ2.to_dict()))
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = cli.main(["oracle-check", str(config), *args])
        assert status == 0, status
        (DATA / name).write_text(stdout.getvalue())
    print(f"wrote {DATA / name}")


if __name__ == "__main__":
    main()
