"""Regenerate the golden CSVs of the tiny-manifest schema tests, one per
regime kind.

Run from the repository root after an intentional output change:
    python3 -m tests.make_golden
"""

import json
import tempfile
from pathlib import Path

import jsqa.cli as cli
from tests.test_cli import DATA, GOLDEN


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


if __name__ == "__main__":
    main()
