"""The benchmark's tracer must find every name it wraps in charpgeom.

`perfbench/tracer.py` wraps public functions and methods by name and raises
LookupError when one is missing, so a rename or move in `src/` (for example
of `multipoly.det`) fails here and not only under a traced benchmark run.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import tracer
    yield tracer
    sys.modules.pop("tracer", None)


def test_tracer_installs_and_uninstalls(tracer_module):
    from charpgeom.algebra import multipoly
    original = multipoly.det
    tr = tracer_module.Tracer()
    try:
        tr.install()
        assert multipoly.det is not original
    finally:
        tr.uninstall()
    assert multipoly.det is original
