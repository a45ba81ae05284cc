"""Golden reports: scenario output must stay byte-identical.

Each file under tests/golden/ is the `json-like-structured` report of one
CLI invocation at fixed (params, seed).  A change that alters a report on
purpose regenerates its golden file with the command in GOLDEN and says so
in CHANGES.md.
"""

import os

import pytest

from charpgeom.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# golden file -> CLI arguments (without --format/--out)
GOLDEN = {
    "vojta-demo.json": ["vojta-demo", "--p", "3", "--d", "1", "--n", "5",
                        "--M", "10", "--seed", "0"],
    "height.json": ["height"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, tmp_path):
    out = tmp_path / name
    code = main(GOLDEN[name] + ["--format", "json-like-structured",
                                "--out", str(out)])
    assert code == 0
    with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
        want = fh.read()
    assert out.read_bytes() == want
