"""Golden demo output: each script under demos/ must print the same bytes.

Each file under tests/golden/demos/ is the stdout of one demo, run as
`PYTHONPATH=src python demos/<name>.py`.  The demos print no unordered
containers, so their output does not depend on PYTHONHASHSEED.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMO_DIR = os.path.join(ROOT, "demos")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden", "demos")
DEMOS = sorted(name[:-3] for name in os.listdir(DEMO_DIR)
               if name.endswith(".py"))


def test_every_demo_has_a_golden():
    goldens = sorted(name[:-4] for name in os.listdir(GOLDEN_DIR)
                     if name.endswith(".txt"))
    assert goldens == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_matches_golden(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    run = subprocess.run([sys.executable, os.path.join(DEMO_DIR, name + ".py")],
                         capture_output=True, env=env, cwd=ROOT, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    with open(os.path.join(GOLDEN_DIR, name + ".txt"), "rb") as fh:
        assert run.stdout == fh.read()
